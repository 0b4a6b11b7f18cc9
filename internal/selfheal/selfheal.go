// Package selfheal implements the proactive-diagnosis/self-healing
// extension of Section 7: symptoms-database entries carry fixes, and once
// the workflow identifies a root cause, the corresponding remedy can be
// planned and verified. Because the fix may be needed in the database
// layer, the storage layer, or both, the remedy registry spans both —
// which is exactly the capability the paper argues an integrated tool
// enables.
package selfheal

import (
	"fmt"

	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// Remedy is a planned fix for an identified root cause.
type Remedy struct {
	Cause       symptoms.CauseInstance
	Description string
	// Layer is "database", "storage", or "both".
	Layer string
	// Apply makes the fix's changes to a testbed at time at, so the
	// healed environment can be re-run and verified.
	Apply func(tb *testbed.Testbed, at simtime.Time) error
}

// remedies maps each cause with an automated fix to its description
// (the cause's subject fills %s), its layer, and the change the fix makes
// to the cause's subject. A fix without a change is made outside the
// modelled environment.
var remedies = map[string]struct {
	what, layer string
	change      topology.EventKind
	detail      string
}{
	// In the healed environment the contending workload's volume lives in
	// the other pool: the verification harness re-runs the scenario with
	// the fault redirected.
	symptoms.CauseSANMisconfig: {what: "migrate the newly created volume out of %s's pool", layer: "storage"},
	symptoms.CauseExternalLoad: {what: "throttle or reschedule the external workload contending with %s", layer: "storage"},
	// Refreshed statistics: the optimizer and the record-count estimates
	// see the new data properties.
	symptoms.CauseDataProperty: {what: "ANALYZE %s to refresh optimizer statistics", layer: "database",
		change: topology.EvStatsUpdated, detail: "ANALYZE refreshed statistics"},
	symptoms.CauseLockContention: {what: "reschedule the batch transaction locking %s", layer: "database"},
	symptoms.CausePlanRegression: {what: "recreate index %s", layer: "database",
		change: topology.EvIndexCreated, detail: "index recreated by self-healing"},
	symptoms.CauseCPUSaturation: {what: "move the competing process off %s", layer: "database"},
	symptoms.CauseDiskFailure:   {what: "replace the failed disk in %s", layer: "storage"},
	symptoms.CauseRAIDRebuild:   {what: "lower the rebuild priority in %s", layer: "storage"},
}

// Plan maps an identified cause to its remedy. It returns an error for
// causes without an automated fix.
func Plan(cause symptoms.CauseInstance) (*Remedy, error) {
	r, ok := remedies[cause.Kind]
	if !ok {
		return nil, fmt.Errorf("selfheal: no automated remedy for cause %q", cause.Kind)
	}
	return &Remedy{
		Cause:       cause,
		Description: fmt.Sprintf(r.what, cause.Subject),
		Layer:       r.layer,
		Apply: func(tb *testbed.Testbed, at simtime.Time) error {
			if r.change == "" {
				return nil
			}
			return tb.Apply(topology.Event{T: at, Kind: r.change, Subject: topology.ID(cause.Subject), Detail: r.detail})
		},
	}, nil
}

// Verify checks a heal by comparing mean run durations: healed runs must
// recover to within tolerance of the healthy baseline.
func Verify(healthyMean, healedMean float64, tolerance float64) (bool, string) {
	if healthyMean <= 0 {
		return false, "no healthy baseline"
	}
	ratio := healedMean / healthyMean
	ok := ratio <= 1+tolerance
	return ok, fmt.Sprintf("healed/healthy duration ratio %.2f (tolerance %.2f)", ratio, 1+tolerance)
}

// Severity orders remedies: database-layer fixes are usually cheaper to
// apply than storage migrations, so ties in confidence prefer them.
func Severity(r *Remedy) int {
	switch r.Layer {
	case "database":
		return 0
	case "storage":
		return 1
	default:
		return 2
	}
}
