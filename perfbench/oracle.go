package main

import (
	"math"
	"sort"

	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/reliable"
	"failstop/internal/sweep"
)

// histStats is what one history says about the detections it contains.
type histStats struct {
	// detections counts completed detections: a target j that some process
	// suspected and for which every other process still up at the end
	// executed failed(j). ticks holds each one's time from the first suspicion of j
	// to the last such failed(j), in the history's time unit.
	detections int
	ticks      []int64
	// susp and hb count SUSP and heartbeat send events; sends all sends.
	susp, hb, sends int64
	// falseSusp counts suspicions raised while the target was still up.
	falseSusp int64
	// quorumSets counts failed events: one reconstructed quorum set each.
	quorumSets int
}

// analyze scans a history of processes 1..n once.
func analyze(h model.History, n int) histStats {
	var st histStats
	crashed := make([]bool, n+1)
	type pending struct {
		first int64
		by    []model.Event // failed(j) events
	}
	targets := map[model.ProcID]*pending{}
	var order []model.ProcID
	for _, e := range h {
		switch e.Kind {
		case model.KindSend:
			st.sends++
			switch e.Tag {
			case core.TagSusp:
				st.susp++
			case fd.TagHeartbeat:
				st.hb++
			}
		case model.KindCrash:
			crashed[e.Proc] = true
		case model.KindFailed:
			st.quorumSets++
			if p := targets[e.Target]; p != nil {
				p.by = append(p.by, e)
			}
		case model.KindInternal:
			if e.Tag != "suspect" {
				continue
			}
			if !crashed[e.Target] {
				st.falseSusp++
			}
			if targets[e.Target] == nil {
				targets[e.Target] = &pending{first: e.Time}
				order = append(order, e.Target)
			}
		default:
			// Receives carry nothing a detection count needs.
		}
	}
	up := 0
	for p := 1; p <= n; p++ {
		if !crashed[p] {
			up++
		}
	}
	for _, j := range order {
		p := targets[j]
		// A process never detects itself: a target still up when the run
		// ends (its own death sentence in flight) is not waited for.
		need := up
		if !crashed[j] {
			need--
		}
		done, last := 0, p.first
		for _, e := range p.by {
			if !crashed[e.Proc] {
				done++
				if e.Time > last {
					last = e.Time
				}
			}
		}
		if done == need {
			st.detections++
			st.ticks = append(st.ticks, last-p.first)
		}
	}
	return st
}

// sfs2bcd reports whether sFS2b, sFS2c and sFS2d hold on h, checked on the
// abstract history: protocol traffic (SUSP, heartbeats, reliable-layer
// acks, Byzantine echoes) dropped, as the repository's experiments do for
// stacks with those layers.
func sfs2bcd(h model.History) bool {
	a := h.DropTags(core.TagSusp, fd.TagHeartbeat, reliable.TagAck, byz.TagEcho)
	return checker.SFS2b(a).Holds && checker.SFS2c(a).Holds && checker.SFS2d(a).Holds
}

// sweepProps are the properties every sweep-checked run must satisfy. FS2
// is absent: a false suspicion violates it by design.
var sweepProps = []string{"FS1", "sFS2a", "sFS2b", "sFS2c", "sFS2d", "Condition1", "Condition2", "Condition3", "W"}

// sweepFailures counts a report's failed runs: per cell, the runs that did
// not quiesce or, for the property that failed most often, did not hold
// it. holds reads the per-property tally (CellResult.Holds when the sweep
// ran the checker, CellResult.Metrics when the traced pass did).
func sweepFailures(rep *sweep.Report, holds func(sweep.CellResult) map[string]int) int {
	failed := 0
	for _, c := range rep.Cells {
		worst := c.Runs - c.Quiescent
		tally := holds(c)
		for _, p := range sweepProps {
			if miss := c.Runs - tally[p]; miss > worst {
				worst = miss
			}
		}
		failed += worst
	}
	return failed
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// intHist counts non-negative integer samples by value, so that millions
// of samples of a few thousand distinct values take a few thousand slots.
type intHist []int64

func (h *intHist) add(v int) {
	for len(*h) <= v {
		*h = append(*h, 0)
	}
	(*h)[v]++
}

// quantile interpolates between order statistics as quantile does.
func (h intHist) quantile(q float64) float64 {
	var n int64
	for _, c := range h {
		n += c
	}
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int64(math.Floor(pos))
	a, b := h.nth(lo), h.nth(min(lo+1, n-1))
	return a + (pos-float64(lo))*(b-a)
}

// nth returns the k-th smallest sample, from 0.
func (h intHist) nth(k int64) float64 {
	for v, c := range h {
		if k < c {
			return float64(v)
		}
		k -= c
	}
	return float64(len(h) - 1)
}

// binomial returns C(m, k) as a float.
func binomial(m, k int) float64 {
	if k < 0 || k > m {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(m-k+i) / float64(i)
	}
	return r
}
