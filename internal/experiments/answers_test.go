package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"diads/internal/symptoms"
)

// qualityCell is one batch diagnosis's accuracy: one scenario at one
// seed, as QUALITY.json records it.
type qualityCell struct {
	Scenario ScenarioID `json:"scenario"`
	Seed     int64      `json:"seed"`
	// Named: the top cause is in one of the scenario's answers.
	Named bool `json:"named"`
	// Failed: the diagnosis returned an error.
	Failed bool `json:"failed"`
	// OutsideMedium and OutsideHigh count the causes rated medium or
	// high that are in no answer.
	OutsideMedium int `json:"outside_medium"`
	OutsideHigh   int `json:"outside_high"`

	outside []string // those causes, for the log
}

// qualityFile is QUALITY.json: the accuracy counterpart of
// BENCHMARK.json, one cell per scenario and seed through the batch door.
type qualityFile struct {
	Source string        `json:"source"`
	Door   string        `json:"door"`
	Cells  []qualityCell `json:"cells"`
}

// batchCells diagnoses the nine scenarios at seeds 1, 7 and 42 through
// the batch door, in that order.
func batchCells(t *testing.T) []qualityCell {
	t.Helper()
	ids := []ScenarioID{
		S1SANMisconfig, S2TwoPoolContention, S3DataPropertyChange,
		S4ConcurrentDBAndSAN, S5LockingWithNoise, SPlanRegression,
		SCPUSaturation, SDiskFailure, SRAIDRebuild,
	}
	var cells []qualityCell
	for _, id := range ids {
		for _, seed := range []int64{1, 7, 42} {
			sc, err := Build(id, seed)
			if err != nil {
				t.Fatal(err)
			}
			cell := qualityCell{Scenario: id, Seed: seed}
			res, _, err := sc.Diagnose()
			if err != nil {
				t.Logf("S%d seed %d: %v", id, seed, err)
				cell.Failed = true
				cells = append(cells, cell)
				continue
			}
			if top, ok := res.RootCause(); ok {
				cell.Named = Named(top.Cause.Kind, top.Cause.Subject, sc.Answers...)
			}
			for _, c := range res.Causes {
				if c.Category == symptoms.Low || Named(c.Kind, c.Subject, sc.Answers...) {
					continue
				}
				if c.Category == symptoms.High {
					cell.OutsideHigh++
				} else {
					cell.OutsideMedium++
				}
				cell.outside = append(cell.outside, fmt.Sprintf("%s(%s) %s", c.Kind, c.Subject, c.Category))
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// TestCausesOutsideAnswers is a ratchet on what a diagnosis names besides
// the injected faults: over the nine scenarios at seeds 1, 7 and 42 it
// counts causes rated medium or high that are in no scenario answer
// (Named fails). It fails if either count rises above its bound. The
// bounds are today's counts (ROADMAP finding 1); the three high ones are
// S8's RAID rebuild, one per seed. When a fix lands, lower the bound to
// the new count so the gain cannot quietly come undone.
func TestCausesOutsideAnswers(t *testing.T) {
	const maxMedium, maxHigh = 47, 3
	medium, high := 0, 0
	for _, c := range batchCells(t) {
		medium += c.OutsideMedium
		high += c.OutsideHigh
		t.Logf("S%d seed %2d: %d outside: %s", c.Scenario, c.Seed, len(c.outside), strings.Join(c.outside, ", "))
	}
	t.Logf("outside every answer: %d medium, %d high", medium, high)
	if medium > maxMedium {
		t.Errorf("%d medium-confidence causes outside the answers, bound %d", medium, maxMedium)
	}
	if high > maxHigh {
		t.Errorf("%d high-confidence causes outside the answers, bound %d", high, maxHigh)
	}
}

// qualityPath is QUALITY.json, at the repository root.
const qualityPath = "../../QUALITY.json"

// TestQualityTable regenerates QUALITY.json's cells and fails on any
// cell worse than committed: a top cause no longer named, a diagnosis
// that fails, or more medium or high causes outside every answer. It
// names each improved cell; then the table printed in the log, written
// over the file, lowers the bar so the gain cannot quietly come undone.
func TestQualityTable(t *testing.T) {
	raw, err := os.ReadFile(qualityPath)
	if err != nil {
		t.Fatal(err)
	}
	var want qualityFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", qualityPath, err)
	}
	got := want
	got.Cells = batchCells(t)
	changed := len(want.Cells) != len(got.Cells)
	if changed {
		t.Errorf("%s has %d cells, the batch door %d", qualityPath, len(want.Cells), len(got.Cells))
	}
	for i := range min(len(want.Cells), len(got.Cells)) {
		g, w := got.Cells[i], want.Cells[i]
		cell := fmt.Sprintf("S%d seed %d", g.Scenario, g.Seed)
		if w.Scenario != g.Scenario || w.Seed != g.Seed {
			t.Errorf("cell %d is S%d seed %d in %s, want %s", i, w.Scenario, w.Seed, qualityPath, cell)
			changed = true
			continue
		}
		for _, col := range []struct {
			name      string
			got, want int // negated where fewer is better
		}{
			{"named", b2i(g.Named), b2i(w.Named)},
			{"failed", -b2i(g.Failed), -b2i(w.Failed)},
			{"outside_medium", -g.OutsideMedium, -w.OutsideMedium},
			{"outside_high", -g.OutsideHigh, -w.OutsideHigh},
		} {
			switch {
			case col.got < col.want:
				t.Errorf("%s: %s got worse: %+v, committed %+v", cell, col.name, g, w)
			case col.got > col.want:
				t.Logf("%s: %s improved: %+v, committed %+v; lower the file", cell, col.name, g, w)
			}
			changed = changed || col.got != col.want
		}
	}
	if changed {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s:\n%s", qualityPath, out)
	}
}

// b2i is 1 for true, 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
