package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gossipstream/internal/sim"
)

func TestMetricNamesObeyRule(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRule.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the naming rule", d.Name)
		}
		if !unitRule.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("catalog too large: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
}

// TestCatalogMatchesBenchmarkJSON pins the benchmark description at the
// repository root to the catalog the program prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	if len(desc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(desc.Workloads), len(workloads))
	}
	for i, w := range desc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", desc.EndToEnd, endToEnd)
	check("per_layer", desc.PerLayer, perLayer)
}

// TestEveryMetricPrintsWithUnit checks the printed form: one line per
// metric ending in its unit, then the result object as the last line.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	for _, catalog := range [][]metricDef{endToEnd, perLayer} {
		vals := map[string]float64{catalog[0].Name: 1.5}
		metrics, err := fill(catalog, vals)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		printResult(f, &result{Correct: true, Attempted: 1, Metrics: metrics})
		f.Close()
		raw, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != len(catalog)+1 {
			t.Fatalf("printed %d lines for %d metrics", len(lines), len(catalog))
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		for _, d := range catalog {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("metric %s printed as %+v, want unit %s", d.Name, m, d.Unit)
			}
		}
		for _, l := range lines[:len(lines)-1] {
			fields := strings.Fields(l)
			if len(fields) != 3 || !unitRule.MatchString(fields[2]) {
				t.Errorf("line %q is not name, value, unit", l)
			}
		}
	}
	if _, err := fill(endToEnd, map[string]float64{"no_such_metric": 1}); err == nil {
		t.Error("fill accepted a metric outside the catalog")
	}
}

// TestAccountCountsFailuresAtClose pins the switch accounting: members
// that never prepared or finished count at their window's close time
// and as missed, and a window fails when more than half its cohort
// missed.
func TestAccountCountsFailuresAtClose(t *testing.T) {
	res := &sim.Result{Windows: []*sim.SwitchMetrics{
		{Kind: "switch", Cohort: 3, MeasuredTicks: 50, PrepareS2Times: []float64{10, 20, 30}, FinishS1Times: []float64{5, 15, 25}},
		{Kind: "switch", Cohort: 3, MeasuredTicks: 100, PrepareS2Times: []float64{40}, UnpreparedS2: 2, UnfinishedS1: 3},
		{Kind: "switch", Cohort: 4, MeasuredTicks: 80, PrepareS2Times: []float64{1, 2, 3, 4}, FinishS1Times: []float64{1, 2}, UnfinishedS1: 2},
		{Kind: "measure", Cohort: 3, MeasuredTicks: 7},
	}}
	sw := account(res, 1)
	if sw.windows != 3 || sw.failed != 1 || sw.members != 10 || sw.missed != 5 {
		t.Errorf("windows=%d failed=%d members=%d missed=%d, want 3, 1, 10, 5", sw.windows, sw.failed, sw.members, sw.missed)
	}
	if got, want := sw.prepareMean(), (10+20+30+40+2*100+1+2+3+4)/10.0; got != want {
		t.Errorf("prepare mean %v, want %v", got, want)
	}
	if got, want := sw.finishMean(), (5+15+25+3*100+1+2+2*80)/10.0; got != want {
		t.Errorf("finish mean %v, want %v", got, want)
	}
}

// TestShortenedRunsPassChecks runs every workload briefly — the
// simulator workloads at a reduced size — at two seeds untraced and at
// one seed traced, and requires every output check to pass.
func TestShortenedRunsPassChecks(t *testing.T) {
	nodes := map[string]int{"sim-switch": 400, "sim-lossy-churn": 200}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Live && testing.Short() {
				t.Skip("live runs are paced on the wall clock (about 10 s each)")
			}
			for _, opt := range []options{
				{seed: 1, seconds: 0.001, nodes: nodes[w.Name]},
				{seed: 2, seconds: 0.001, nodes: nodes[w.Name]},
				{seed: 1, seconds: 0.001, nodes: nodes[w.Name], traced: true},
			} {
				res, err := bench(w, opt)
				if err != nil {
					t.Fatalf("seed %d traced=%v: %v", opt.seed, opt.traced, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
					t.Errorf("seed %d traced=%v: correct=%v attempted=%d failed=%d",
						opt.seed, opt.traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if opt.traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("seed %d traced=%v: %d metrics, want %d", opt.seed, opt.traced, len(res.Metrics), len(want))
				}
				if !opt.traced {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("seed %d: end-to-end metric %s = %v, want > 0", opt.seed, d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			}
		})
	}
}

// TestTraceReaderRejectsBadTraces checks the traced run's trace gate.
func TestTraceReaderRejectsBadTraces(t *testing.T) {
	good := `{"t":"run-start","tick":0,"scenario":"x","nodes":3}` + "\n" + `{"t":"tick","tick":0,"ns":1500000}` + "\n"
	ticks, err := readTrace([]byte(good))
	if err != nil || len(ticks) != 1 || ticks[0] != 1.5e6 {
		t.Errorf("good trace: ticks=%v err=%v", ticks, err)
	}
	for _, bad := range []string{
		"",
		`{"t":"tick","tick":0}` + "\n",
		`{"t":"run-start","tick":0,"scenario":"x","nodes":3}` + "\n",
	} {
		if _, err := readTrace([]byte(bad)); err == nil {
			t.Errorf("trace %q accepted", bad)
		}
	}
}
