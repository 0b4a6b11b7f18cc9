package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestOutputGolden pins the full default output at seed 42 bit for bit:
// every table, figure and study the command regenerates. A moved hash
// means a rendered number or verdict changed; print the output with
// `go run ./cmd/diadsbench` and diff it against the parent commit's
// before updating the hash.
func TestOutputGolden(t *testing.T) {
	const want = "d843697cb796bf06662e5d36e7da10e71d13e727af43b08b6ca7a85a76a6d425"
	h := sha256.New()
	if err := run(h, 42, ""); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("diadsbench output SHA-256 = %s, want %s", got, want)
	}
}
