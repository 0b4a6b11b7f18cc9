package fleet

import (
	"fmt"
	"sort"

	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

const (
	// confirmConfidence is the diagnosis confidence an incident needs
	// before the fleet treats it as expert-confirmed and feeds it to the
	// miner — the paper's High category boundary.
	confirmConfidence = 80
	// confirmEvents is how many slowdown events an incident must
	// accumulate at high confidence before it counts as confirmed —
	// standing in for the expert's review.
	confirmEvents = 2
	// epochLen is the evidence-time granularity of the learning
	// exchange. Shards deposit confirmations and healthy bases tagged
	// with their epoch; the central learner folds an epoch exactly once,
	// after every shard has diagnosed it, and installs land at that
	// fold. The epoch is a fixed evidence-time
	// grid — independent of Chunk — so chunk-size sweeps stay
	// byte-identical.
	epochLen = 10 * simtime.Minute
	// minIncidents is how many confirmed incidents of a cause kind the
	// miner needs before proposing an entry.
	minIncidents = 2
	// holdoutEvery withholds every n-th confirmed incident of a cause
	// kind from mining and gives it to the validator instead, so
	// candidates are replayed against confirmed incidents they were not
	// mined from.
	holdoutEvery = 3
)

// isConfirmed reports whether an incident has crossed the confirmation
// gate the miner feeds on: a built-in cause other than plan regression,
// diagnosed at high confidence over enough events, with the facts to
// mine.
func isConfirmed(inc service.Incident) bool {
	return inc.Kind != symptoms.CausePlanRegression && !symptoms.IsMined(inc.Kind) &&
		inc.Confidence >= confirmConfidence && inc.Events >= confirmEvents &&
		inc.Result != nil && inc.Result.Facts != nil
}

// ReviewPolicy selects how a candidate that passed validation is
// adopted — the paper's "checked by an expert" step.
type ReviewPolicy int

const (
	// ReviewAutoAccept installs a candidate as soon as it passes the
	// healthy-corpus and hold-out replays (validation stands in for the
	// expert). The default.
	ReviewAutoAccept ReviewPolicy = iota
	// ReviewOperator holds validated candidates for an operator ack:
	// LearnConfig.Reviewer decides, or — when no Reviewer is wired —
	// the candidate stays pending with its rendered DSL surfaced in
	// LearnStats (and the console candidates panel) for manual adoption.
	ReviewOperator
)

// LearnConfig tunes the cross-instance symptom-learning loop, the
// paper's Section 7 self-evolving symptoms database closed at fleet
// scale: confirmed incidents on some instances are mined into candidate
// entries, candidates are validated against healthy-period evidence and
// held-out incidents, accepted candidates are installed into the
// fleet-shared database, and subsequent diagnoses on *other* instances
// evaluate them.
type LearnConfig struct {
	// Disabled switches the loop off (the before-side of the fleet
	// experiment's before/after comparison).
	Disabled bool
	// Review selects the adoption gate for validated candidates.
	Review ReviewPolicy
	// Reviewer is consulted under ReviewOperator: it sees the candidate
	// and its validation report and answers accept or reject. It is
	// called from the fleet's loop as it folds an epoch, so it must be
	// deterministic for fleet runs to stay byte-identical per seed.
	// Nil under ReviewOperator leaves validated candidates pending.
	Reviewer func(symptoms.CandidateEntry, symptoms.Validation) bool
}

// incidentID is the registry identity of a confirmed incident.
type incidentID struct {
	instance, query, kind, subject string
}

// candidate is one proposed entry in flight: the latest proposal for
// its kind plus its latest validation report.
type candidate struct {
	cand symptoms.CandidateEntry
	val  symptoms.Validation
}

// state names what the candidate is waiting for.
func (c *candidate) state() string {
	if c.val.Verdict == symptoms.VerdictPass {
		return "validated — awaiting operator review"
	}
	if c.val.Reason != "" {
		return c.val.Reason
	}
	return "proposed — awaiting validation"
}

// learner runs the candidate lifecycle — proposed → validated →
// installed/rejected — over a shared symptoms database. It has no
// locking of its own: the exchange drives it under its mutex at epoch
// folds, and tests drive it directly.
type learner struct {
	cfg       LearnConfig
	symdb     *symptoms.DB
	miner     symptoms.Miner
	validator symptoms.Validator

	// preinstalled records cause kinds already in the database when the
	// learner was built (entries learned in a previous run and reloaded
	// from the DSL); proposals for them are neither re-validated nor
	// re-installed.
	preinstalled map[string]bool

	// fed marks incidents already routed (to the miner or the hold-out
	// set).
	fed map[incidentID]bool
	// kindSeen counts confirmations per cause kind, driving the
	// hold-out rotation.
	kindSeen map[string]int
	// sources accumulates, per prospective mined kind, the instances
	// whose confirmed incidents were mined into it (hold-out incidents
	// do not make their instance an author).
	sources map[string]map[string]bool
	// authors freezes sources at install time: instances that confirmed
	// after the entry was installed are beneficiaries, not authors.
	authors map[string]map[string]bool

	// pending holds in-flight candidates by mined kind; pendingOrder
	// remembers first-proposal order for deterministic reporting.
	pending      map[string]*candidate
	pendingOrder []string
	rejected     map[string]bool
	rejectedList []RejectedCandidate
	installed    []InstalledEntry

	confirmed, heldOut int
	transfers          int
	transferredTo      map[string]bool

	// stale marks new evidence since the last step: an incident routed
	// to the miner or the hold-out set, or a base that grew the healthy
	// corpus. Without it a step has nothing to do (see step).
	stale bool
}

func newLearner(cfg LearnConfig, symdb *symptoms.DB) *learner {
	l := &learner{
		cfg:           cfg,
		symdb:         symdb,
		preinstalled:  make(map[string]bool),
		fed:           make(map[incidentID]bool),
		kindSeen:      make(map[string]int),
		sources:       make(map[string]map[string]bool),
		authors:       make(map[string]map[string]bool),
		pending:       make(map[string]*candidate),
		rejected:      make(map[string]bool),
		transferredTo: make(map[string]bool),
	}
	for _, e := range symdb.Entries() {
		if symptoms.IsMined(e.Kind) {
			l.preinstalled[e.Kind] = true
		}
	}
	return l
}

// addHealthy feeds a healthy-period fact base to BOTH consumers that
// need a picture of normal operation: the miner's background filter
// (so always-present facts never become proposed conditions) and the
// validator's corpus (so candidates that slipped through are rejected
// on replay). One entry point for both is what keeps the background
// filter from going dead again.
func (l *learner) addHealthy(fb *symptoms.FactBase) {
	if l.validator.AddHealthy(fb) {
		l.miner.AddBackground(fb)
		l.stale = true
	}
}

// observe routes newly-confirmed incidents: most feed the miner (their
// instances become prospective authors), every holdoutEvery-th of a
// kind is withheld for the validator's hold-out replay.
func (l *learner) observe(incs []service.Incident) {
	for _, inc := range incs {
		if !isConfirmed(inc) {
			continue
		}
		id := incidentID{inc.Instance, inc.Query, inc.Kind, inc.Subject}
		if l.fed[id] {
			continue
		}
		l.fed[id] = true
		l.stale = true
		l.kindSeen[inc.Kind]++
		mined := symptoms.Incident{
			Facts: inc.Result.Facts, CauseKind: inc.Kind, Subject: inc.Subject,
		}
		if l.kindSeen[inc.Kind]%holdoutEvery == 0 {
			l.heldOut++
			l.validator.AddHoldout(mined)
			continue
		}
		l.confirmed++
		l.miner.AddIncident(mined)
		kind := inc.Kind + symptoms.MinedSuffix
		if l.sources[kind] == nil {
			l.sources[kind] = make(map[string]bool)
		}
		l.sources[kind][inc.Instance] = true
	}
}

// step advances the lifecycle: refresh proposals, validate every
// pending candidate, and pass survivors through the review gate.
//
// A step with no new evidence returns at once, and skipping it is
// exact: proposals and verdicts are pure functions of the miner's and
// validator's contents, and the only candidates a step leaves pending
// are deferred ones and validated ones awaiting an operator's ack,
// which a second step would leave exactly as they are.
func (l *learner) step() {
	if !l.stale {
		return
	}
	l.stale = false
	for _, cand := range l.miner.Propose(minIncidents) {
		kind := cand.CauseKind
		if l.preinstalled[kind] || l.authors[kind] != nil || l.rejected[kind] {
			continue
		}
		c := l.pending[kind]
		if c == nil {
			c = &candidate{}
			l.pending[kind] = c
			l.pendingOrder = append(l.pendingOrder, kind)
		}
		// Always refresh to the latest proposal: conditions shrink as
		// the background corpus grows and support rises with new
		// confirmations.
		c.cand = cand
	}
	for _, kind := range l.pendingOrder {
		c := l.pending[kind]
		if c == nil {
			continue
		}
		c.val = l.validator.Validate(c.cand)
		switch c.val.Verdict {
		case symptoms.VerdictDefer:
			// Stays pending; the state is visible in LearnStats.
		case symptoms.VerdictReject:
			l.reject(kind, c.val.Reason, c.val)
		case symptoms.VerdictPass:
			if l.cfg.Review == ReviewOperator {
				if l.cfg.Reviewer == nil {
					continue // awaiting the operator's ack
				}
				if !l.cfg.Reviewer(c.cand, c.val) {
					l.reject(kind, "operator rejected", c.val)
					continue
				}
			}
			l.install(kind, c)
		}
	}
}

// resolve settles one pending candidate by operator decision — the ack
// the ReviewOperator policy waits for when no Reviewer is wired. Accept
// installs only a candidate that has already passed validation (the
// operator cannot override the healthy-corpus/hold-out replays); reject
// retires it regardless of validation state. The error reports an
// unknown kind or an accept of an unvalidated candidate.
func (l *learner) resolve(kind string, accept bool) error {
	c := l.pending[kind]
	if c == nil {
		if l.rejected[kind] {
			return fmt.Errorf("fleet: candidate %q already rejected", kind)
		}
		for _, ie := range l.installed {
			if ie.Kind == kind {
				return fmt.Errorf("fleet: candidate %q already installed", kind)
			}
		}
		return fmt.Errorf("fleet: no pending candidate %q", kind)
	}
	if !accept {
		l.reject(kind, "operator rejected", c.val)
		return nil
	}
	if c.val.Verdict != symptoms.VerdictPass {
		return fmt.Errorf("fleet: candidate %q not validated (%s)", kind, c.state())
	}
	l.install(kind, c)
	return nil
}

// reject retires a candidate with its reason; the kind is never
// proposed, validated, or installed again this run.
func (l *learner) reject(kind, reason string, val symptoms.Validation) {
	delete(l.pending, kind)
	l.rejected[kind] = true
	l.rejectedList = append(l.rejectedList, RejectedCandidate{
		Kind: kind, Reason: reason, Validation: val,
	})
}

// install adds the candidate to the shared database, freezing its
// author set. A database rejection (the add failing) retires the
// candidate with the error as its reason instead of silently retrying
// the same failing entry every wave.
func (l *learner) install(kind string, c *candidate) {
	entry := c.cand.Entry()
	if err := l.symdb.Add(entry); err != nil {
		l.reject(kind, "install: "+err.Error(), c.val)
		return
	}
	authors := make(map[string]bool, len(l.sources[kind]))
	sorted := make([]string, 0, len(l.sources[kind]))
	for inst := range l.sources[kind] {
		authors[inst] = true
		sorted = append(sorted, inst)
	}
	sort.Strings(sorted)
	l.authors[kind] = authors
	l.installed = append(l.installed, InstalledEntry{
		Kind: kind, Sources: sorted, Entry: entry, Validation: c.val,
	})
	delete(l.pending, kind)
}

// transferIn records a mined entry of the given kind scoring high on an
// instance, reporting whether that counts as a cross-instance transfer
// (the instance did not author the entry).
func (l *learner) transferIn(kind, instance string) bool {
	authors := l.authors[kind]
	if authors == nil || authors[instance] {
		return false
	}
	l.transfers++
	l.transferredTo[instance] = true
	return true
}

// stats snapshots the lifecycle for the report.
func (l *learner) stats() LearnStats {
	out := LearnStats{
		Confirmed: l.confirmed,
		HeldOut:   l.heldOut,
		Healthy:   l.validator.HealthyCount(),
		Transfers: l.transfers,
	}
	out.Installed = append(out.Installed, l.installed...)
	for _, kind := range l.pendingOrder {
		c := l.pending[kind]
		if c == nil {
			continue
		}
		out.Pending = append(out.Pending, PendingCandidate{
			Kind:       kind,
			State:      c.state(),
			Support:    c.cand.Support,
			Incidents:  c.cand.Incidents,
			Rendered:   c.cand.Render(),
			Validation: c.val,
		})
	}
	out.Rejected = append(out.Rejected, l.rejectedList...)
	for inst := range l.transferredTo {
		out.TransferInstances = append(out.TransferInstances, inst)
	}
	sort.Strings(out.TransferInstances)
	return out
}

// InstalledEntry describes one mined entry installed into the shared
// database: the instances whose confirmed incidents authored it, the
// installable entry itself (renderable to the admin DSL for
// persistence), and the validation report that admitted it.
type InstalledEntry struct {
	Kind    string
	Sources []string
	// Entry is the installed database entry; Entry.Render() is the DSL
	// form that reloads through symptoms.Parse in a later run.
	Entry symptoms.Entry
	// Validation is the report that passed it.
	Validation symptoms.Validation
}

// PendingCandidate is a proposed entry still in flight: deferred for
// more evidence, or validated and awaiting the operator's ack.
type PendingCandidate struct {
	Kind string
	// State says what the candidate is waiting for.
	State string
	// Support/Incidents mirror the candidate's mining support.
	Support, Incidents int
	// Rendered is the candidate in the admin DSL
	// (CandidateEntry.Render) — what an operator reviews and acks.
	Rendered string
	// Validation is the latest validation report.
	Validation symptoms.Validation
}

// RejectedCandidate is a retired candidate and why.
type RejectedCandidate struct {
	Kind   string
	Reason string
	// Validation is the report behind the rejection (zero for
	// rejections that never reached validation, like install errors).
	Validation symptoms.Validation
}

// LearnStats summarizes the learning loop's run.
type LearnStats struct {
	// Confirmed counts incidents fed to the miner; HeldOut the
	// confirmed incidents withheld for the validator's hold-out replay.
	Confirmed int
	HeldOut   int
	// Healthy is the healthy-corpus size feeding the miner's background
	// filter and the validator.
	Healthy int
	// Installed lists the entries installed, in install order.
	Installed []InstalledEntry
	// Pending lists candidates still in flight, in proposal order.
	Pending []PendingCandidate
	// Rejected lists retired candidates with reasons, in
	// rejection order.
	Rejected []RejectedCandidate
	// Transfers counts diagnoses where a mined entry scored high on an
	// instance that did not author it; TransferInstances lists the
	// benefiting instances (sorted).
	Transfers         int
	TransferInstances []string
}
