package experiments

import (
	"strings"
	"testing"
)

// quickTortureParams shrink nothing — each torture seed is already a small
// world; tests just bound the seed count.
func quickTortureParams() TortureParams {
	p := DefaultTortureParams()
	p.Seeds = 4
	return p
}

// TestCompoundFaultsAuditClean asserts the §4.3 invariants hold through the
// whole compound-fault scenario on its default seed: thousands of checks,
// zero violations — the auditor proves the graceful-migration protocol
// survives the fault barrage, not just that availability recovers.
func TestCompoundFaultsAuditClean(t *testing.T) {
	r := CompoundFaults(quickCompoundFaultParams())
	if got := r.Values["audit_violations"]; got != 0 {
		art, _ := r.Extra.(*AuditArtifacts)
		txt := ""
		if art != nil {
			txt = art.Text
		}
		t.Fatalf("audit_violations = %v, want 0\n%s", got, txt)
	}
	if got := r.Values["audit_checks"]; got < 1000 {
		t.Fatalf("audit_checks = %v, want >= 1000 (auditor not wired?)", got)
	}
}

// TestCompoundFaultsAuditByteIdentical runs the audited compound experiment
// twice and compares the full deterministic audit reports byte for byte.
// The report includes every timeline timestamp, so any nondeterminism in
// the run — or any RNG draw introduced by the observer hooks themselves —
// shows up here.
func TestCompoundFaultsAuditByteIdentical(t *testing.T) {
	var texts [2]string
	for i := range texts {
		r := CompoundFaults(quickCompoundFaultParams())
		art, ok := r.Extra.(*AuditArtifacts)
		if !ok {
			t.Fatalf("compound report carries no audit artifacts (Extra = %T)", r.Extra)
		}
		texts[i] = art.Text
	}
	if texts[0] != texts[1] {
		t.Fatalf("audit reports differ between identical runs:\n--- first\n%s\n--- second\n%s",
			texts[0], texts[1])
	}
}

// TestTortureCleanSeed pins a seed the sweep found clean: concurrent
// migrations under its random fault timeline with zero violations.
func TestTortureCleanSeed(t *testing.T) {
	run := RunTortureSeed(quickTortureParams(), 1)
	if n := run.Auditor.ViolationCount(); n != 0 {
		t.Fatalf("seed 1: %d violations, want 0 (first: %+v)", n, run.Bugs)
	}
	checks := run.Auditor.Checks()
	for _, inv := range []string{"one-primary", "stale-routing", "write-owner"} {
		if checks[inv] == 0 {
			t.Errorf("seed 1: invariant %s never checked", inv)
		}
	}
}

// TestTortureRegressionSeed5 pins what used to be the torture sweep's
// headline finding: under seed 5's timeline a server the orchestrator
// believed dead kept serving as primary while failover promoted a
// replacement, producing dual active primaries and a write during the
// overlap. Epoch-fenced ownership (self-fencing on session expiry, the
// PromoteHold gate, and generation-ordered grants) eliminates the overlap;
// this test asserts the finding stays gone and that fencing actually
// engaged during the run rather than the fault timeline going soft.
func TestTortureRegressionSeed5(t *testing.T) {
	run := RunTortureSeed(quickTortureParams(), 5)
	if n := run.Auditor.ViolationCount(); n != 0 {
		t.Fatalf("seed 5: %d violations, want 0 — the false-dead dual-primary regressed (bugs: %+v)",
			n, run.Bugs)
	}
	fences := run.Deployment.Loop.Metrics().
		Counter("appserver_shard_ops_total", "app", "torture", "op", "fence").Value()
	if fences == 0 {
		t.Error("seed 5: no server ever self-fenced; the expire faults should trigger fencing")
	}
	// Determinism pin: the same seed must yield the identical report.
	again := RunTortureSeed(quickTortureParams(), 5)
	if a, b := NewAuditArtifacts(run.Auditor).Text, NewAuditArtifacts(again.Auditor).Text; a != b {
		t.Fatal("seed 5 audit reports differ between identical runs")
	}
}

// TestTortureRegressionSeed70 pins what used to be the sweep's stale-routing
// class: under seed 70's timeline a client kept getting requests served by a
// server long after the published map moved the shard away. Generation-
// ordered map application plus rejection-triggered map refresh keeps client
// routing inside StaleBound; the seed must stay clean.
func TestTortureRegressionSeed70(t *testing.T) {
	run := RunTortureSeed(quickTortureParams(), 70)
	for _, b := range run.Bugs {
		if b.Invariant == "stale-routing" {
			t.Fatalf("seed 70: stale-routing finding returned: %s", b.Detail)
		}
	}
	if n := run.Auditor.ViolationCount(); n != 0 {
		t.Fatalf("seed 70: %d violations, want 0 (bugs: %+v)", n, run.Bugs)
	}
}

// TestTortureRegressionSeed321 pins what used to be the sweep's crash class:
// under seed 321's timeline the orchestrator assembled a map with a
// duplicate replica of one shard and tripped its own publish-time sanity
// panic, killing the world. The publish guards now reject the bad plan
// entry (counted in orchestrator_publish_rejected_total) instead of
// publishing garbage or panicking; the seed must run to completion clean.
func TestTortureRegressionSeed321(t *testing.T) {
	run := RunTortureSeed(quickTortureParams(), 321)
	if run.Panic != "" {
		t.Fatalf("seed 321: world crashed again: %q", run.Panic)
	}
	if n := run.Auditor.ViolationCount(); n != 0 {
		t.Fatalf("seed 321: %d violations, want 0 (bugs: %+v)", n, run.Bugs)
	}
	again := RunTortureSeed(quickTortureParams(), 321)
	if a, b := NewAuditArtifacts(run.Auditor).Text, NewAuditArtifacts(again.Auditor).Text; a != b {
		t.Fatal("seed 321 audit reports differ between identical runs")
	}
}

// TestTortureReport runs a tiny sweep through the registry entry and checks
// the report carries the found-bug artifacts — now an empty log, since the
// previously pinned seeds run clean under epoch-fenced ownership.
func TestTortureReport(t *testing.T) {
	p := quickTortureParams()
	p.StartSeed, p.Seeds = 5, 1
	r := Torture(p)
	art, ok := r.Extra.(*TortureArtifacts)
	if !ok {
		t.Fatalf("torture report Extra = %T, want *TortureArtifacts", r.Extra)
	}
	if len(art.Bugs) != 0 || art.SeedsHit != 0 {
		t.Fatalf("artifacts = %+v, want no findings on seed 5", art)
	}
	if art.Checks == 0 {
		t.Fatal("artifacts carry no invariant checks; auditor not wired?")
	}
	rendered := r.Render()
	if !strings.Contains(rendered, "no invariant violations") {
		t.Errorf("rendered report should state the log is clean:\n%s", rendered)
	}
}

// TestTortureSmokeReachesResync runs the 12-seed smoke that check.sh gates
// on and requires it to drive the delta chain through its resync branch —
// a client that missed a version catches up from the current map — with no
// invariant violations.
func TestTortureSmokeReachesResync(t *testing.T) {
	p := DefaultTortureParams()
	p.Seeds = 12
	art := Torture(p).Extra.(*TortureArtifacts)
	if art.Violations != 0 || art.Panics != 0 {
		t.Fatalf("smoke found %d violations, %d panics: %+v", art.Violations, art.Panics, art.Bugs)
	}
	if art.Deliveries["resync"] == 0 {
		t.Fatalf("no resync deliveries in the smoke: %v", art.Deliveries)
	}
	if art.Deliveries["delivered"] == 0 {
		t.Fatalf("no in-order deliveries in the smoke: %v", art.Deliveries)
	}
}
