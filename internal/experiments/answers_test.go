package experiments

import (
	"fmt"
	"strings"
	"testing"

	"diads/internal/symptoms"
)

// TestCausesOutsideAnswers is a ratchet on what a diagnosis names besides
// the injected faults: over the nine scenarios at seeds 1, 7 and 42 it
// counts causes rated medium or high that are in no scenario answer
// (Named fails). It fails if either count rises above its bound. The
// bounds are today's counts (ROADMAP finding 1); the three high ones are
// S8's RAID rebuild, one per seed. When a fix lands, lower the bound to
// the new count so the gain cannot quietly come undone.
func TestCausesOutsideAnswers(t *testing.T) {
	const maxMedium, maxHigh = 47, 3
	ids := []ScenarioID{
		S1SANMisconfig, S2TwoPoolContention, S3DataPropertyChange,
		S4ConcurrentDBAndSAN, S5LockingWithNoise, SPlanRegression,
		SCPUSaturation, SDiskFailure, SRAIDRebuild,
	}
	count := map[symptoms.Category]int{}
	for _, id := range ids {
		for _, seed := range []int64{1, 7, 42} {
			sc, err := Build(id, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := sc.Diagnose()
			if err != nil {
				t.Fatal(err)
			}
			var outside []string
			for _, c := range res.Causes {
				if c.Category == symptoms.Low || Named(c.Kind, c.Subject, sc.Answers...) {
					continue
				}
				count[c.Category]++
				outside = append(outside, fmt.Sprintf("%s(%s) %s", c.Kind, c.Subject, c.Category))
			}
			t.Logf("S%d seed %2d: %d outside: %s", id, seed, len(outside), strings.Join(outside, ", "))
		}
	}
	t.Logf("outside every answer: %d medium, %d high", count[symptoms.Medium], count[symptoms.High])
	if count[symptoms.Medium] > maxMedium {
		t.Errorf("%d medium-confidence causes outside the answers, bound %d", count[symptoms.Medium], maxMedium)
	}
	if count[symptoms.High] > maxHigh {
		t.Errorf("%d high-confidence causes outside the answers, bound %d", count[symptoms.High], maxHigh)
	}
}
