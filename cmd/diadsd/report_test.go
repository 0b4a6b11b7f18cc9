package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// TestFleetReportRepeats: the report on stdout, of a fleet and of a
// single instance, is a function of the flags alone, so two runs of one
// command print it byte for byte. The end-of-run telemetry snapshot,
// whose wall-time histograms differ between runs, goes to stderr with
// the log, and so does the single-instance report's module timing panel.
func TestFleetReportRepeats(t *testing.T) {
	bin := buildDaemon(t)
	for _, tc := range []struct {
		name, report string
		args         []string
	}{
		{"fleet", "DIADS — Fleet", []string{"-instances", "8", "-seed", "42"}},
		{"single", "top incident:", []string{"-seed", "42"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (stdout, stderr []byte) {
				t.Helper()
				var out, errOut bytes.Buffer
				cmd := exec.Command(bin, tc.args...)
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
			if !strings.Contains(string(first), tc.report) {
				t.Errorf("stdout holds no report:\n%s", first)
			}
		})
	}
}
