package sweep

import (
	"fmt"
	"sort"
	"strings"

	"failstop/internal/recovery"
	"failstop/internal/sim"
	"failstop/internal/stats"
)

// Properties lists the checker's properties in presentation order, as
// produced by checker.All.
var Properties = []string{
	"FS1", "FS2",
	"sFS2a", "sFS2b", "sFS2c", "sFS2d",
	"Condition1", "Condition2", "Condition3",
	"W",
}

// CellResult aggregates every run of one cell. The serialized form is the
// shard report format cmd/sfs-sweep emits with -json and recombines with
// -merge; every field carries an explicit tag so the wire format cannot
// drift when fields are added or renamed.
//
//sfs:wire
type CellResult struct {
	Cell Cell `json:"cell"`
	// Links is the directed link count of the cell's topology — the
	// footprint a fully-exercised network would lazily materialize:
	// n(n-1) for the complete graph, the adjacency size for partial
	// topologies. Fanout is the gossip sample fanout (0 for the other
	// kinds). Both are static properties of (topology, n), recorded so
	// large-N reports carry their own scale columns.
	Links  int64 `json:"links,omitempty"`
	Fanout int   `json:"fanout,omitempty"`
	// Runs is the number of runs executed for the cell.
	Runs int `json:"runs"`
	// Stops tallies runs by stop reason.
	Stops map[sim.StopReason]int `json:"stops"`
	// Quiescent counts fully drained runs (no horizon, nothing stuck in
	// gated or parked channels).
	Quiescent int `json:"quiescent"`
	// BlockedRuns counts runs that ended with messages stuck in gated or
	// parked channels (undelivered traffic to live processes).
	BlockedRuns int `json:"blocked_runs"`
	// Checked counts runs whose history went through the checker (the
	// quiescent runs, when Spec.Check is set).
	Checked int `json:"checked"`
	// Dropped and Duplicated total the messages the network fault plan
	// discarded and the extra copies it injected, over all runs of the cell.
	Dropped    int `json:"dropped"`
	Duplicated int `json:"duplicated"`
	// Retransmits and AckedDuplicates total the reliable-delivery layer's
	// counters over all runs of the cell (0 for cells without the layer).
	Retransmits     int `json:"retransmits"`
	AckedDuplicates int `json:"acked_duplicates"`
	// PlanCrashes, Restarts, and Recovered total the crash-recovery
	// subsystem's counters over all runs of the cell: plan-scheduled
	// crashes executed, restarts executed, and restarts that restored a
	// non-empty durable snapshot (0 for cells without process faults).
	PlanCrashes int `json:"plan_crashes"`
	Restarts    int `json:"restarts"`
	Recovered   int `json:"recovered"`
	// ByzDetected and ByzMasked total the validation interposer's counters
	// over all runs of the cell: convictions issued and forged/duplicate/
	// masked-sender frames discarded (0 for cells without the interposer).
	// Corrupted, Equivocated, and Replayed total the fault plane's
	// Byzantine injection counters (0 for plans without Byzantine rules).
	ByzDetected int `json:"byz_detected"`
	ByzMasked   int `json:"byz_masked"`
	Corrupted   int `json:"corrupted"`
	Equivocated int `json:"equivocated"`
	Replayed    int `json:"replayed"`
	// Holds counts, per property, the checked runs on which it held.
	Holds map[string]int `json:"holds"`
	// Metrics counts, per custom metric, the runs on which it was true.
	Metrics map[string]int `json:"metrics"`
	// Obs totals the runs' observability counters (the simulator's
	// snapshot merged, under a fault plan, with the fault plane's) over
	// all runs of the cell, keyed by metric name. Histogram-kind metrics
	// carry no total and are not aggregated here. The counter columns
	// Dropped through Replayed are read from these totals (see
	// counterColumns).
	Obs map[string]int64 `json:"obs"`
	// Events and EndTimes summarize run length in events and virtual time.
	Events   stats.Summary `json:"events"`
	EndTimes stats.Summary `json:"end_times"`
	// EventSamples and EndTimeSamples are the raw per-run samples behind
	// Events and EndTimes, sorted ascending. Retaining them is what lets
	// Merge recombine shard reports into exact percentiles: summaries
	// cannot be merged, sample sets can.
	EventSamples   []float64 `json:"event_samples"`
	EndTimeSamples []float64 `json:"end_time_samples"`
	// Timeseries summarizes, per timeline series name, the distribution
	// of per-run peak values over the cell's runs (populated when
	// Spec.Timeline is set). TimeseriesSamples retains the raw sorted
	// peaks behind each summary, for the same reason EventSamples exists:
	// sample sets merge across shards, summaries do not.
	Timeseries        map[string]stats.Summary `json:"timeseries"`
	TimeseriesSamples map[string][]float64     `json:"timeseries_samples"`
}

// HoldsAll reports whether prop held on every checked run of the cell.
func (c *CellResult) HoldsAll(prop string) bool {
	return c.Checked > 0 && c.Holds[prop] == c.Checked
}

// MetricAll reports whether the named metric was true on every run.
func (c *CellResult) MetricAll(name string) bool {
	return c.Runs > 0 && c.Metrics[name] == c.Runs
}

// MetricNone reports whether the named metric was false on every run.
func (c *CellResult) MetricNone(name string) bool {
	return c.Runs > 0 && c.Metrics[name] == 0
}

// Report is the aggregated outcome of a sweep.
//
//sfs:wire
type Report struct {
	// Cells holds one aggregate per cell, in Spec.Cells order.
	Cells []CellResult `json:"cells"`
	// Runs is the total number of runs executed.
	Runs int `json:"runs"`
	// Shard records which slice of the job stream this report covers
	// ({0, 1} for an unsharded sweep, and for a merged set of shards).
	// Merge uses it to refuse duplicated, overlapping, or missing shards.
	Shard Shard `json:"shard"`
	// Workers is the worker-pool size that executed the sweep.
	Workers int `json:"workers"`
}

// Cell returns the aggregate for the given cell identity, or nil.
func (r *Report) Cell(c Cell) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Cell == c {
			return &r.Cells[i]
		}
	}
	return nil
}

// TotalHolds sums per-property verdict counts and checked-run counts over
// every cell — the sweep-wide Figure 1 style tally.
func (r *Report) TotalHolds() (holds map[string]int, checked int) {
	holds = map[string]int{}
	for i := range r.Cells {
		//sfs:allow detmaprange commutative sum into a map; callers render via the sorted Properties list
		for p, n := range r.Cells[i].Holds {
			holds[p] += n
		}
		checked += r.Cells[i].Checked
	}
	return holds, checked
}

// PropertyTable renders the sweep-wide verdict tally: one row per checked
// property with the count and percentage of checked runs on which it held.
func (r *Report) PropertyTable() string {
	holds, checked := r.TotalHolds()
	tbl := stats.NewTable("property", "runs holding", "checked runs", "pct")
	for _, prop := range Properties {
		n, present := holds[prop]
		if !present && checked == 0 {
			continue
		}
		pct := 0.0
		if checked > 0 {
			pct = 100 * float64(n) / float64(checked)
		}
		tbl.Row(prop, n, checked, pct)
	}
	return tbl.String()
}

// CellTable renders one row per cell: outcome tallies, event-count
// percentiles, network-fault tallies (when any cell ran under a fault
// plan), and any custom metrics.
func (r *Report) CellTable() string {
	var allMetrics []map[string]int
	faulty, topos, rel, rec, byz := false, false, false, false, false
	for i := range r.Cells {
		allMetrics = append(allMetrics, r.Cells[i].Metrics)
		if r.Cells[i].Cell.Plan != "" {
			faulty = true
		}
		if r.Cells[i].Cell.Topo != "" {
			topos = true
		}
		if r.Cells[i].Cell.Reliable {
			rel = true
		}
		if r.Cells[i].Cell.Recovery != recovery.Off {
			rec = true
		}
		if r.Cells[i].Cell.Byzantine || r.Cells[i].Corrupted > 0 ||
			r.Cells[i].Equivocated > 0 || r.Cells[i].Replayed > 0 {
			byz = true
		}
	}
	names := metricNames(allMetrics...)
	headers := []string{"cell", "runs", "quiescent", "blocked", "max-time", "max-events", "events p50", "events p95"}
	if topos {
		headers = append(headers, "links", "fanout")
	}
	if faulty {
		headers = append(headers, "dropped", "duplicated")
	}
	if rel {
		headers = append(headers, "retransmits", "acked-dup")
	}
	if rec {
		headers = append(headers, "crashes", "restarts", "recovered")
	}
	if byz {
		headers = append(headers, "byz-detected", "byz-masked", "corrupted", "equivocated", "replayed")
	}
	headers = append(headers, names...)
	tbl := stats.NewTable(headers...)
	for i := range r.Cells {
		c := &r.Cells[i]
		row := []any{
			c.Cell.String(), c.Runs, c.Quiescent, c.BlockedRuns,
			c.Stops[sim.StopMaxTime], c.Stops[sim.StopMaxEvents],
			c.Events.Median, c.Events.P95,
		}
		if topos {
			row = append(row, c.Links, c.Fanout)
		}
		if faulty {
			row = append(row, c.Dropped, c.Duplicated)
		}
		if rel {
			row = append(row, c.Retransmits, c.AckedDuplicates)
		}
		if rec {
			row = append(row, c.PlanCrashes, c.Restarts, c.Recovered)
		}
		if byz {
			row = append(row, c.ByzDetected, c.ByzMasked, c.Corrupted, c.Equivocated, c.Replayed)
		}
		for _, m := range names {
			row = append(row, fmt.Sprintf("%d/%d", c.Metrics[m], c.Runs))
		}
		tbl.Row(row...)
	}
	return tbl.String()
}

// String renders the full report: header, per-cell table, and — when any
// run was checked — the sweep-wide property tally.
func (r *Report) String() string {
	var b strings.Builder
	// Workers is deliberately not rendered: the text report of a merged
	// set of shard reports must be byte-identical to the unsharded one,
	// and worker counts are execution bookkeeping, not results.
	fmt.Fprintf(&b, "sweep: %d runs over %d cells\n", r.Runs, len(r.Cells))
	b.WriteString(r.CellTable())
	if _, checked := r.TotalHolds(); checked > 0 {
		b.WriteString("\nproperty verdicts over quiescent runs:\n")
		b.WriteString(r.PropertyTable())
	}
	return b.String()
}

// accumulator builds one CellResult incrementally. Each worker owns a
// private set of accumulators (no locking on the add path); sets combine
// with merge, which is commutative and associative over everything result
// reports, so the final CellResult is independent of which worker ran
// which job.
type accumulator struct {
	cell      Cell
	links     int64
	fanout    int
	runs      int
	stops     map[sim.StopReason]int
	quiet     int
	blocked   int
	checked   int
	holds     map[string]int
	metrics   map[string]int
	obsTotals map[string]int64
	tseries   map[string][]float64
	events    []float64
	ends      []float64
}

// newAccumulator creates one empty accumulator; sampleHint presizes the
// run-length sample slices (the former per-run record traffic, now
// buffered in place).
func newAccumulator(cell Cell, links int64, fanout, sampleHint int) *accumulator {
	return &accumulator{
		cell:      cell,
		links:     links,
		fanout:    fanout,
		stops:     make(map[sim.StopReason]int, 3),
		holds:     make(map[string]int, len(Properties)),
		metrics:   map[string]int{},
		obsTotals: map[string]int64{},
		tseries:   map[string][]float64{},
		events:    make([]float64, 0, sampleHint),
		ends:      make([]float64, 0, sampleHint),
	}
}

func newAccumulators(cells []cellSpec) []*accumulator {
	out := make([]*accumulator, len(cells))
	for i, cs := range cells {
		out[i] = newAccumulator(cs.cell, cs.links, cs.fanout, 0)
	}
	return out
}

func (a *accumulator) add(rec runRecord) {
	a.runs++
	a.stops[rec.stop]++
	if rec.quiescent {
		a.quiet++
	}
	if rec.blocked {
		a.blocked++
	}
	if rec.verdicts != nil {
		a.checked++
		for _, v := range rec.verdicts {
			if v.Holds {
				a.holds[v.Property]++
			}
		}
	}
	//sfs:allow detmaprange commutative tally into a map; rendering sorts via metricNames
	for name, val := range rec.metrics {
		if val {
			a.metrics[name]++
		} else {
			a.metrics[name] += 0 // record the name so 0-counts render
		}
	}
	// rec.obs is a sorted slice, rec.peaks a name-sorted snapshot: both
	// iterate deterministically. Histogram metrics carry no summable value.
	for _, m := range rec.obs {
		if m.Summary == nil {
			a.obsTotals[m.Name] += m.Value
		}
	}
	for _, s := range rec.peaks {
		a.tseries[s.Name] = append(a.tseries[s.Name], s.Max())
	}
	a.events = append(a.events, rec.events)
	a.ends = append(a.ends, rec.endTime)
}

// merge folds b into a. All aggregates are commutative sums (map keys
// union; samples concatenate and are sorted by result), so merging the
// per-worker accumulators in any order produces the same CellResult.
func (a *accumulator) merge(b *accumulator) {
	a.runs += b.runs
	//sfs:allow detmaprange commutative sum into a map; emission renders by keyed lookup
	for k, v := range b.stops {
		a.stops[k] += v
	}
	a.quiet += b.quiet
	a.blocked += b.blocked
	a.checked += b.checked
	//sfs:allow detmaprange commutative sum into a map; emission renders via the sorted Properties list
	for k, v := range b.holds {
		a.holds[k] += v
	}
	//sfs:allow detmaprange commutative sum into a map; rendering sorts via metricNames
	for k, v := range b.metrics {
		a.metrics[k] += v
	}
	//sfs:allow detmaprange commutative sum into a map; rendering sorts via metricNames
	for k, v := range b.obsTotals {
		a.obsTotals[k] += v
	}
	//sfs:allow detmaprange keyed sample-set concatenation; result sorts every set before publishing
	for k, v := range b.tseries {
		a.tseries[k] = append(a.tseries[k], v...)
	}
	a.events = append(a.events, b.events...)
	a.ends = append(a.ends, b.ends...)
}

// result finalizes the accumulator. Samples are sorted here — not in
// arrival order — so the published CellResult (and anything derived from
// it, like a shard report on disk) is identical no matter how jobs were
// scheduled across workers.
func (a *accumulator) result() CellResult {
	sort.Float64s(a.events)
	sort.Float64s(a.ends)
	ts := make(map[string]stats.Summary, len(a.tseries))
	//sfs:allow detmaprange per-key sort and summarize; keyed output is independent of visit order
	for name, samples := range a.tseries {
		sort.Float64s(samples)
		ts[name] = stats.Summarize(samples)
	}
	c := CellResult{
		Cell:              a.cell,
		Links:             a.links,
		Fanout:            a.fanout,
		Runs:              a.runs,
		Stops:             a.stops,
		Quiescent:         a.quiet,
		BlockedRuns:       a.blocked,
		Checked:           a.checked,
		Holds:             a.holds,
		Metrics:           a.metrics,
		Obs:               a.obsTotals,
		Events:            stats.Summarize(a.events),
		EndTimes:          stats.Summarize(a.ends),
		EventSamples:      a.events,
		EndTimeSamples:    a.ends,
		Timeseries:        ts,
		TimeseriesSamples: a.tseries,
	}
	for _, col := range counterColumns {
		*col.field(&c) = int(a.obsTotals[col.metric])
	}
	return c
}

// counterColumns names the Obs total behind each counter column of a
// CellResult. The columns are derived from the totals, never summed on
// their own, so no merge can leave one out.
var counterColumns = []struct {
	metric string
	field  func(*CellResult) *int
}{
	{"sim_dropped_total", func(c *CellResult) *int { return &c.Dropped }},
	{"sim_duplicated_total", func(c *CellResult) *int { return &c.Duplicated }},
	{"reliable_retransmits_total", func(c *CellResult) *int { return &c.Retransmits }},
	{"reliable_acked_duplicates_total", func(c *CellResult) *int { return &c.AckedDuplicates }},
	{"sim_plan_crashes_total", func(c *CellResult) *int { return &c.PlanCrashes }},
	{"sim_restarts_total", func(c *CellResult) *int { return &c.Restarts }},
	{"sim_recovered_total", func(c *CellResult) *int { return &c.Recovered }},
	{"byz_detected_total", func(c *CellResult) *int { return &c.ByzDetected }},
	{"byz_masked_total", func(c *CellResult) *int { return &c.ByzMasked }},
	{"plane_byz_corrupted_total", func(c *CellResult) *int { return &c.Corrupted }},
	{"plane_byz_equivocated_total", func(c *CellResult) *int { return &c.Equivocated }},
	{"plane_byz_replayed_total", func(c *CellResult) *int { return &c.Replayed }},
}
