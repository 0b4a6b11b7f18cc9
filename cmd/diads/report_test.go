package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestReportRepeats: the console's stdout is a function of its flags
// alone, so two runs of one command print it byte for byte. The module
// timing panel and the telemetry snapshot, whose wall times differ
// between runs, go to stderr.
func TestReportRepeats(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "diads")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building diads: %v\n%s", err, out)
	}
	run := func() (stdout, stderr []byte) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, "-scenario", "1")
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("diads: %v\n%s", err, errOut.Bytes())
		}
		return out.Bytes(), errOut.Bytes()
	}
	first, stderr := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Errorf("two runs print different reports\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, panel := range []string{"telemetry snapshot", "diads_module_wall_seconds"} {
		if bytes.Contains(first, []byte(panel)) || !bytes.Contains(stderr, []byte(panel)) {
			t.Errorf("%q is not on stderr alone", panel)
		}
	}
	if !bytes.Contains(first, []byte("san-misconfig-contention(vol-V1)")) {
		t.Errorf("stdout holds no report:\n%s", first)
	}
}
