package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"diads/internal/experiments"
)

// TestReportRepeats: the console's stdout is a function of its flags
// alone, so two runs of one command print it byte for byte. The module
// timing panel and the telemetry snapshot, whose wall times differ
// between runs, go to stderr.
func TestReportRepeats(t *testing.T) {
	bin := buildDiads(t)
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

// TestFaultScreen: -fault prints, for every entry of the fault catalog,
// the fault's answer, the Q2 run history and the change log.
func TestFaultScreen(t *testing.T) {
	bin := buildDiads(t)
	for _, fam := range slices.Concat(experiments.Families, experiments.Variants) {
		out, err := exec.Command(bin, "-fault", fam.Name).CombinedOutput()
		if err != nil {
			t.Fatalf("diads -fault %s: %v\n%s", fam.Name, err, out)
		}
		for _, want := range []string{"(answer: [", "run-Q2-016", "configuration/system events:"} {
			if !bytes.Contains(out, []byte(want)) {
				t.Errorf("diads -fault %s prints no %q:\n%s", fam.Name, want, out)
			}
		}
	}
	if err := exec.Command(bin, "-fault", "no-such-fault").Run(); err == nil {
		t.Error("an unknown fault name exits 0")
	}
}

// buildDiads builds the command into a temporary directory.
func buildDiads(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "diads")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building diads: %v\n%s", err, out)
	}
	return bin
}
