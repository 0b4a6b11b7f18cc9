package experiments

import (
	"slices"
	"testing"
)

// TestFaultCatalog keeps the one fault catalog whole: every entry,
// family or variant, has a name of its own, injects into a fresh
// Figure 1 testbed and resolves a non-empty answer, and every scenario
// Build constructs injects catalog entries only. A family added to
// Families therefore joins every door that ranges over it at once.
func TestFaultCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, fam := range slices.Concat(Families, Variants) {
		if seen[fam.Name] {
			t.Errorf("two catalog entries are named %s", fam.Name)
		}
		seen[fam.Name] = true
		tb, f, err := InjectFaults(testSeed, fam.Name)
		if err != nil {
			t.Errorf("%s: %v", fam.Name, err)
			continue
		}
		if len(f[0].Answer(tb)) == 0 {
			t.Errorf("%s resolves an empty answer", fam.Name)
		}
	}
	for id := S1SANMisconfig; id <= SRAIDRebuild; id++ {
		row, ok := scenarioRows[id]
		if !ok || len(row.causes) == 0 {
			t.Errorf("scenario %d has no row naming its causes", id)
		}
		for _, name := range slices.Concat(row.causes, row.noise) {
			if !seen[name] {
				t.Errorf("scenario %d injects %q, which is not in the catalog", id, name)
			}
		}
	}
}
