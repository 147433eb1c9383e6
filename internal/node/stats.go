package node

import (
	"cmp"
	"slices"

	"failstop/internal/obs"
)

// Counters is a host's traffic and process-fault counter set. The
// simulator and the live runtime each keep one and report it under their
// own metric prefix ("sim", "net"); the names are otherwise identical.
type Counters struct {
	Sent, Delivered, Dropped, Duplicated obs.Counter
	TimersFired                          obs.Counter
	// PlanCrashes counts crashes executed from the host's lifetimes,
	// Restarts the restarts that followed, and Recovered the restarts that
	// restored a non-empty durable snapshot.
	PlanCrashes, Restarts, Recovered obs.Counter
}

// MetricNames is the metric names of a Counters under one host prefix,
// built once per host package so snapshots allocate no strings.
type MetricNames struct {
	sent, delivered, dropped, duplicated, timersFired string
	planCrashes, restarts, recovered                  string
}

// NewMetricNames names the counters prefix_sent_total, prefix_delivered_total,
// and so on.
func NewMetricNames(prefix string) *MetricNames {
	return &MetricNames{
		sent:        prefix + "_sent_total",
		delivered:   prefix + "_delivered_total",
		dropped:     prefix + "_dropped_total",
		duplicated:  prefix + "_duplicated_total",
		timersFired: prefix + "_timers_fired_total",
		planCrashes: prefix + "_plan_crashes_total",
		restarts:    prefix + "_restarts_total",
		recovered:   prefix + "_recovered_total",
	}
}

// each visits the counters with their names. The recovery counters are
// visited only for hosts with lifetimes: runs without process faults keep
// their snapshots byte-identical to builds that predate recovery.
func (c *Counters) each(names *MetricNames, lifetimes bool, fn func(name string, ctr *obs.Counter)) {
	fn(names.sent, &c.Sent)
	fn(names.delivered, &c.Delivered)
	fn(names.dropped, &c.Dropped)
	fn(names.duplicated, &c.Duplicated)
	fn(names.timersFired, &c.TimersFired)
	if lifetimes {
		fn(names.planCrashes, &c.PlanCrashes)
		fn(names.restarts, &c.Restarts)
		fn(names.recovered, &c.Recovered)
	}
}

// Register exposes the counters in reg under names. A no-op on a nil
// registry.
func (c *Counters) Register(reg *obs.Registry, names *MetricNames, lifetimes bool) {
	if reg == nil {
		return
	}
	c.each(names, lifetimes, reg.RegisterCounter)
}

// Snapshot returns the counters under names, the layer counters of l, and
// extra, sorted by name.
func (c *Counters) Snapshot(names *MetricNames, lifetimes bool, l Layers, extra ...obs.Metric) obs.Metrics {
	ms := make(obs.Metrics, 0, 12+len(extra))
	add := func(name string, v int64) {
		ms = append(ms, obs.Metric{Name: name, Kind: obs.KindCounter, Value: v})
	}
	c.each(names, lifetimes, func(name string, ctr *obs.Counter) { add(name, ctr.Value()) })
	if l.Reliable {
		add("reliable_acked_duplicates_total", int64(l.AckedDuplicates))
		add("reliable_retransmits_total", int64(l.Retransmits))
	}
	if l.Byz {
		add("byz_detected_total", int64(l.ByzDetected))
		add("byz_masked_total", int64(l.ByzMasked))
	}
	ms = append(ms, extra...)
	slices.SortFunc(ms, func(a, b obs.Metric) int { return cmp.Compare(a.Name, b.Name) })
	return ms
}

// Layers totals the counters of the protocol layers a host's handlers
// carry: the reliable-delivery layer (internal/reliable) and the Byzantine
// validation interposer (internal/byz). Hosts find them structurally, so
// they need not import the layers.
type Layers struct {
	// Reliable and Byz report that some handler carries the layer.
	Reliable, Byz bool
	// Retransmits and AckedDuplicates total the reliable layer's frames
	// retransmitted and received duplicates suppressed after re-acking.
	Retransmits, AckedDuplicates int
	// ByzDetected and ByzMasked total the interposer's convictions and the
	// frames it discarded from convicted senders.
	ByzDetected, ByzMasked int
}

// LayerStats totals the layer counters over hs (nil entries are skipped).
// It walks each handler's wrapper chain outermost first through Inner()
// and takes the first reliable layer and the first interposer it meets:
// the interposer sits inside the reliable layer when both are enabled.
// The layers' counters are atomic, so a live host may call it while
// running.
func LayerStats(hs []Handler) Layers {
	var l Layers
	for _, h := range hs {
		rel, bz := false, false
		for h != nil && !(rel && bz) {
			if rs, ok := h.(interface{ ReliableStats() (int, int) }); ok && !rel {
				rel = true
				r, d := rs.ReliableStats()
				l.Reliable = true
				l.Retransmits += r
				l.AckedDuplicates += d
			}
			if bs, ok := h.(interface{ ByzStats() (int, int) }); ok && !bz {
				bz = true
				d, m := bs.ByzStats()
				l.Byz = true
				l.ByzDetected += d
				l.ByzMasked += m
			}
			iw, ok := h.(interface{ Inner() Handler })
			if !ok {
				break
			}
			h = iw.Inner()
		}
	}
	return l
}
