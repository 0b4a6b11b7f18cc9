package exec

import (
	"testing"
	"unsafe"
)

// TestOpRunSize pins an operator's record at what one run measured: nine
// 8-byte fields. Its type, table and estimate are its plan node's, which
// every run of the plan shares.
func TestOpRunSize(t *testing.T) {
	if got := unsafe.Sizeof(OpRun{}); got != 72 {
		t.Errorf("OpRun is %d bytes, want 72", got)
	}
}
