package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// TestFleetReportRepeats: the fleet report on stdout is a function of
// the flags alone, so two runs of one command print it byte for byte.
// The end-of-run telemetry snapshot, whose wall-time histograms differ
// between runs, goes to stderr with the log.
func TestFleetReportRepeats(t *testing.T) {
	bin := buildDaemon(t)
	run := func() (stdout, stderr []byte) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, "-instances", "8", "-seed", "42")
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("diadsd: %v\n%s", err, errOut.Bytes())
		}
		return out.Bytes(), errOut.Bytes()
	}
	first, stderr := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Errorf("two runs print different reports\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if bytes.Contains(first, []byte("telemetry snapshot")) || !bytes.Contains(stderr, []byte("telemetry snapshot")) {
		t.Error("the telemetry snapshot is not on stderr alone")
	}
	if !strings.Contains(string(first), "DIADS — Fleet") {
		t.Errorf("stdout holds no fleet report:\n%s", first)
	}
}
