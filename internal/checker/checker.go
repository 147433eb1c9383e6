// Package checker verifies the paper's properties on recorded histories:
// the fail-stop conditions FS1/FS2 (§3.1), the simulated-fail-stop
// conditions sFS2a–sFS2d (Figure 1), the necessary Conditions 1–3 of §3.2,
// and the Witness property W of §4.
//
// Finite-horizon semantics. The paper's properties quantify over infinite
// runs; this package checks their natural finite counterparts:
//
//   - Safety properties (FS2, sFS2b, sFS2c, sFS2d, Conditions 2–3, W) are
//     checked exactly: a finite violation is a violation of every extension.
//   - Liveness properties (FS1, sFS2a, Condition 1) are checked at the end
//     of the history, which is sound when the history was run to quiescence
//     (nothing in flight can change the outcome); callers should check
//     sim.Result.Quiescent before trusting a liveness verdict.
package checker

import (
	"fmt"

	"failstop/internal/model"
	"failstop/internal/quorum"
)

// Verdict is the outcome of checking one property on one history.
type Verdict struct {
	// Property is the paper's name for the property ("FS1", "sFS2d", ...).
	Property string
	// Holds reports whether the property holds on the history.
	Holds bool
	// Detail describes the first violation found; empty when Holds.
	Detail string
}

// String renders the verdict as "FS1: ok" or "FS2: VIOLATED (detail)".
func (v Verdict) String() string {
	if v.Holds {
		return v.Property + ": ok"
	}
	return v.Property + ": VIOLATED (" + v.Detail + ")"
}

func ok(prop string) Verdict { return Verdict{Property: prop, Holds: true} }

func bad(prop, format string, args ...any) Verdict {
	return Verdict{Property: prop, Detail: fmt.Sprintf(format, args...)}
}

// FS1 checks strong completeness on the finite horizon: every process that
// is crashed when the history ends is detected by every process that is
// not. Meaningful on quiescent runs.
//
// Crash-recovery histories (internal/recovery) make the down-at-end
// distinction matter: a process that crashed but restarted is live again,
// so it neither needs detecting nor is excused from detecting the
// processes that stayed down — a restarted process is not "crashed" for
// FS1 accounting. On restart-free histories DownAtEnd equals Crashed and
// this is the paper's FS1 verbatim.
//
//	FS1: ∀r,i: r ⊨ □(CRASH_i ⇒ ∀j: ◇(CRASH_j ∨ FAILED_j(i)))
func FS1(h model.History) Verdict {
	return FS1At(h, h.Processes())
}

// FS1At is FS1 with the membership size given explicitly. FS1 infers n
// from the history, which is right when every process leaves a trace; in
// crash-recovery scenarios a process can be entirely silent — it never
// sends, detects, crashes, or restarts — and inference would silently
// drop it, together with its obligation to detect every down process
// (the property would then pass vacuously). Callers that know the true
// membership pass it here; silent processes count as live.
func FS1At(h model.History, n int) Verdict {
	down := h.DownAtEnd()
	// Walk processes in id order, not map order, so the counterexample a
	// failing run reports is the same on every execution.
	for i := model.ProcID(1); int(i) <= n; i++ {
		if !down[i] {
			continue
		}
		for j := model.ProcID(1); int(j) <= n; j++ {
			if j == i || down[j] {
				continue
			}
			if h.FailedIndex(j, i) < 0 {
				return bad("FS1", "crash_%d never detected by live process %d", i, j)
			}
		}
	}
	return ok("FS1")
}

// FS2 checks strong accuracy: no process is detected before it has crashed.
// In history terms, crash_i precedes failed_j(i) for every detection.
//
//	FS2: ∀r,i,j: r ⊨ □(FAILED_j(i) ⇒ CRASH_i)
func FS2(h model.History) Verdict {
	for _, d := range h.Detections() {
		ci := h.CrashIndex(d.Detected)
		if ci < 0 || ci > d.Index {
			return bad("FS2", "failed_%d(%d) at index %d precedes crash_%d (index %d)",
				d.Detector, d.Detected, d.Index, d.Detected, ci)
		}
	}
	return ok("FS2")
}

// Accuracy checks ground-truth accuracy against an external allow-set: every
// detection targets a process in allowed — typically the plan's scheduled
// crash victims plus its Byzantine victims. This is the Byzantine analogue
// of FS2: under an active adversary the recorded crash order races the
// detection that masked the misbehavior (the victim crashes on its own
// completed SUSP, which may serialize after other processes' failed events),
// so FS2's crash-precedes-detection reading is unachievable even when every
// conviction is correct. What must hold instead is that nobody innocent is
// ever detected.
func Accuracy(h model.History, allowed map[model.ProcID]bool) Verdict {
	for _, d := range h.Detections() {
		if !allowed[d.Detected] {
			return bad("Accuracy", "failed_%d(%d) at index %d detects a process that neither crashed by plan nor misbehaved",
				d.Detector, d.Detected, d.Index)
		}
	}
	return ok("Accuracy")
}

// SFS2a checks that every detected process eventually crashes:
//
//	sFS2a: ∀r,i,j: r ⊨ □(FAILED_i(j) ⇒ ◇CRASH_j)
//
// Meaningful on quiescent runs (the crash may be in flight otherwise).
func SFS2a(h model.History) Verdict {
	for _, d := range h.Detections() {
		if h.CrashIndex(d.Detected) < 0 {
			return bad("sFS2a", "failed_%d(%d) but %d never crashes",
				d.Detector, d.Detected, d.Detected)
		}
	}
	return ok("sFS2a")
}

// SFS2b checks that the failed-before relation is acyclic (Condition 2).
func SFS2b(h model.History) Verdict {
	fb := model.NewFailedBefore(h)
	if cyc := fb.Cycle(); cyc != nil {
		return bad("sFS2b", "failed-before cycle %v", cyc)
	}
	return ok("sFS2b")
}

// SFS2c checks that no process detects its own failure:
//
//	sFS2c: ∀r,i: r ⊨ □¬FAILED_i(i)
func SFS2c(h model.History) Verdict {
	for _, d := range h.Detections() {
		if d.Detector == d.Detected {
			return bad("sFS2c", "failed_%d(%d) at index %d", d.Detector, d.Detected, d.Index)
		}
	}
	return ok("sFS2c")
}

// SFS2d checks the contamination barrier: once i has executed failed_i(j),
// any message i subsequently sends to k is not received until k has also
// executed failed_k(j).
//
//	sFS2d: r ⊨ □[FAILED_i(j) ∧ ¬SEND_i(k,m) ⇒
//	             □((SEND_i(k,m) ∧ RECV_k(i,m)) ⇒ FAILED_k(j))]
func SFS2d(h model.History) Verdict {
	// For each process i, the set of targets detected so far while scanning.
	detectedBy := make(map[model.ProcID][]model.ProcID)
	// sends tainted by a detection: msg id -> (sender's detected set at send).
	taint := make(map[model.MsgID][]model.ProcID)
	// detection index per (i,j) for the receive-side check.
	failedIdx := make(map[[2]model.ProcID]int)

	for idx, e := range h {
		switch e.Kind {
		case model.KindFailed:
			detectedBy[e.Proc] = append(detectedBy[e.Proc], e.Target)
			failedIdx[[2]model.ProcID{e.Proc, e.Target}] = idx
		case model.KindSend:
			if ds := detectedBy[e.Proc]; len(ds) > 0 {
				cp := make([]model.ProcID, len(ds))
				copy(cp, ds)
				taint[e.Msg] = cp
			}
		case model.KindCrash, model.KindInternal:
			// No contamination flows through crashes or internal events.
		case model.KindRecv:
			for _, j := range taint[e.Msg] {
				fi, okd := failedIdx[[2]model.ProcID{e.Proc, j}]
				if !okd || fi > idx {
					return bad("sFS2d",
						"recv_%d(%d, m%d) at index %d before failed_%d(%d): message sent after sender detected %d",
						e.Proc, e.Peer, e.Msg, idx, e.Proc, j, j)
				}
			}
		}
	}
	return ok("sFS2d")
}

// Condition1 checks §3.2 Condition 1: if failed_i(j) occurs in the history
// then crash_j occurs in the history. Operationally identical to sFS2a on a
// finite horizon but reported under its own name.
func Condition1(h model.History) Verdict {
	v := SFS2a(h)
	v.Property = "Condition1"
	return v
}

// Condition2 checks §3.2 Condition 2: the failed-before relation is acyclic.
func Condition2(h model.History) Verdict {
	v := SFS2b(h)
	v.Property = "Condition2"
	return v
}

// Condition3 checks §3.2 Condition 3: there is no event e of process j such
// that failed_i(j) happens-before e.
func Condition3(h model.History) Verdict {
	hb := model.NewHB(h)
	for _, d := range h.Detections() {
		for idx := d.Index + 1; idx < len(h); idx++ {
			if h[idx].Proc != d.Detected {
				continue
			}
			if hb.Before(d.Index, idx) {
				return bad("Condition3", "failed_%d(%d) at %d happens-before %s at %d",
					d.Detector, d.Detected, d.Index, h[idx], idx)
			}
		}
	}
	return ok("Condition3")
}

// QuorumSets reconstructs, from the history alone, the quorum set Q_{i,j}
// of every completed detection (Definition 5): the detector i itself plus
// every process from which i received "j failed" (tag core SUSP) before
// executing failed_i(j). The §5 protocol merges SUSP and ACK.SUSP, so
// received suspicion messages are the acknowledgements.
func QuorumSets(h model.History, suspTag string) []quorum.Set {
	// heard[{i, j}] is {i} ∪ the senders of "j failed" received by i so
	// far: the quorum a detection failed_i(j) takes if it happens now.
	heard := make(map[[2]model.ProcID]*quorum.Set)
	at := func(i, j model.ProcID) *quorum.Set {
		k := [2]model.ProcID{i, j}
		s := heard[k]
		if s == nil {
			s = new(quorum.Set)
			s.Add(i)
			heard[k] = s
		}
		return s
	}
	var out []quorum.Set
	for _, e := range h {
		switch {
		case e.Kind == model.KindRecv && e.Tag == suspTag && e.Target != model.None:
			at(e.Proc, e.Target).Add(e.Peer)
		case e.Kind == model.KindFailed:
			out = append(out, at(e.Proc, e.Target).Clone())
		}
	}
	return out
}

// WitnessProperty checks §4's Witness property W on the quorum sets
// reconstructed from the history, in the form Theorem 7's quorum size
// guarantees and sFS2b requires: every subfamily of at most t quorum sets
// has a common witness (a failed-before cycle involves at most t processes,
// hence at most t quorum sets — larger subfamilies never matter).
func WitnessProperty(h model.History, suspTag string, t int) Verdict {
	sets := QuorumSets(h, suspTag)
	if !quorum.SubfamiliesIntersect(sets, t) {
		return bad("W", "some %d of the %d detections' quorum sets have empty intersection", t, len(sets))
	}
	return ok("W")
}

// SFS checks the full simulated-fail-stop specification of Figure 1:
// FS1 + sFS2a + sFS2b + sFS2c + sFS2d.
func SFS(h model.History) []Verdict {
	return []Verdict{FS1(h), SFS2a(h), SFS2b(h), SFS2c(h), SFS2d(h)}
}

// FS checks the fail-stop specification: FS1 + FS2.
func FS(h model.History) []Verdict {
	return []Verdict{FS1(h), FS2(h)}
}

// All checks every property this package knows about. The sFS and FS
// properties are checked on the abstract (model-level) history — protocol
// SUSP messages and fd heartbeats dropped per History.DropTags — while the
// Witness property needs the full trace to reconstruct quorum sets.
func All(h model.History, suspTag string, t int) []Verdict {
	abstract := h.DropTags(suspTag, "HB")
	out := []Verdict{
		FS1(abstract), FS2(abstract),
		SFS2a(abstract), SFS2b(abstract), SFS2c(abstract), SFS2d(abstract),
		Condition1(abstract), Condition2(abstract), Condition3(abstract),
		WitnessProperty(h, suspTag, t),
	}
	return out
}

// AllHold reports whether every verdict holds, and if not, the first
// failing verdict.
func AllHold(vs []Verdict) (Verdict, bool) {
	for _, v := range vs {
		if !v.Holds {
			return v, false
		}
	}
	return Verdict{}, true
}
