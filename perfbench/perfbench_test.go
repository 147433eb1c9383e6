package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests compare
// against the program.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json's workloads, metric
// names and units to the ones the program prints.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], program prints [%s]", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, layerUnits)
}

// runTiny runs one workload at its self-test size and decodes the result
// line, checking the output shape.
func runTiny(t *testing.T, name string, trace string) result {
	t.Helper()
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	var out bytes.Buffer
	args := []string{"--workload", name, "--seed", "3", "--seconds", "0.05", "--trace", trace}
	if err := run(args, &out, true); err != nil {
		t.Fatalf("%s trace=%s: %v", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "# ") {
			t.Errorf("%s: non-comment line before the result: %q", name, l)
		}
	}
	if !strings.Contains(out.String(), "gomaxprocs=") || !strings.Contains(out.String(), "# seeds ") {
		t.Errorf("%s: environment header missing:\n%s", name, out.String())
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	return res
}

// TestWorkloadsPrintEveryMetric runs every workload, untraced and traced,
// at a tiny size: every named metric prints with its unit, every oracle
// passes, and the traced replay reproduces the untraced counts.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			res := runTiny(t, name, trace)
			want := endToEndUnits
			if trace == "1" {
				want = layerUnits
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// TestTracedLayersMatchWorkloads checks each workload's intended stress in
// its traced run: checker time only on sweep-checked, runtime time only
// on live-detect, reliable and byz only on faulty-stack.
func TestTracedLayersMatchWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		m := runTiny(t, name, "1").Metrics
		checker := m["checker.witness_s"].Value + m["checker.sfs_s"].Value
		if (checker > 0) != (name == "sweep-checked") {
			t.Errorf("%s: checker time %v", name, checker)
		}
		if (m["runtime.handler_s"].Value > 0) != (name == "live-detect") {
			t.Errorf("%s: runtime handler time %v", name, m["runtime.handler_s"].Value)
		}
		if (m["sim.self_s"].Value > 0) == (name == "live-detect") {
			t.Errorf("%s: sim self time %v", name, m["sim.self_s"].Value)
		}
		layered := m["reliable.calls"].Value > 0 && m["byz.calls"].Value > 0 && m["netadv.decide_calls"].Value > 0
		if layered != (name == "faulty-stack") {
			t.Errorf("%s: reliable/byz/netadv calls %v/%v/%v", name,
				m["reliable.calls"].Value, m["byz.calls"].Value, m["netadv.decide_calls"].Value)
		}
	}
}

// TestSweepOracleCountsViolations feeds the sweep-checked oracle a sweep of
// the §6 Cheap protocol under mutual suspicion, which violates sFS2b and W:
// the oracle must count failed runs.
func TestSweepOracleCountsViolations(t *testing.T) {
	mutual, _ := sweep.Builtin("mutual")
	spec := sweep.Spec{
		Grid:      []sweep.NT{{N: 5, T: 2}},
		Protocols: []core.Protocol{core.Cheap},
		Schedules: []sweep.Schedule{mutual},
		Seeds:     sweep.SeedRange{Count: 4},
		Check:     true,
	}
	rep, err := sweep.Run(spec, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepFailures(rep, func(c sweep.CellResult) map[string]int { return c.Holds }); got == 0 {
		t.Fatalf("oracle passed a Cheap-protocol sweep: %v", rep.Cells[0].Holds)
	}
}

// TestHistoryOracleCountsViolations feeds the sFS2b–d oracle used by
// faulty-stack and live-detect a Cheap-protocol run with a failed-before
// cycle.
func TestHistoryOracleCountsViolations(t *testing.T) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{Delay: sweep.SlowKillDelay(1, 1, 2)},
		Det: core.Config{N: 5, T: 2, Protocol: core.Cheap},
	})
	c.SuspectAt(20, 1, 2)
	c.SuspectAt(23, 2, 1)
	h := c.Run().History
	if sfs2bcd(h) {
		t.Fatal("oracle passed a history with a failed-before cycle")
	}
	if st := analyze(h, 5); st.falseSusp == 0 {
		t.Error("no false suspicion counted in a run of two false suspicions")
	}
}

// TestAnalyzeCountsCompletedDetections pins the detection definition on a
// hand-built history: j=3 is detected by every process still up, j=2 is
// not (process 4 never executes failed(2)).
func TestAnalyzeCountsCompletedDetections(t *testing.T) {
	ev := func(e model.Event, at int64) model.Event { e.Time = at; return e }
	h := model.History{
		ev(model.Crash(3), 1),
		ev(model.Internal(1, "suspect", 3), 5),
		ev(model.Internal(1, "suspect", 2), 6),
		ev(model.Failed(1, 3), 9),
		ev(model.Failed(4, 3), 12),
		ev(model.Failed(2, 3), 10),
		ev(model.Failed(1, 2), 11),
	}
	st := analyze(h, 4)
	if st.detections != 1 || len(st.ticks) != 1 || st.ticks[0] != 7 {
		t.Fatalf("detections=%d ticks=%v, want 1 detection of 7 ticks", st.detections, st.ticks)
	}
	// A target still up at the end (its crash not yet executed) does not
	// have to detect itself.
	if st := analyze(h[1:], 4); st.detections != 1 {
		t.Errorf("detections with the target still up = %d, want 1", st.detections)
	}
	if st.falseSusp != 1 {
		t.Errorf("false suspicions = %d, want 1", st.falseSusp)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.99); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	var h intHist
	ints := []int{7, 3, 3, 0, 12, 5, 3, 9}
	fs := make([]float64, len(ints))
	for i, x := range ints {
		h.add(x)
		fs[i] = float64(x)
	}
	for _, q := range []float64{0, 0.3, 0.5, 0.99, 1} {
		if got, want := h.quantile(q), quantile(fs, q); got != want {
			t.Errorf("histogram quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := binomial(15, 3); got != 455 {
		t.Errorf("C(15,3) = %v", got)
	}
}
