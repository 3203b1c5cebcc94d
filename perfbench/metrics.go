package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The catalog below
// is the single source of truth for what a run prints; BENCHMARK.json
// at the repository root must list the same names and units (pinned by
// TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the figures a user of the system sees, printed by every
// untraced run (--trace 0) of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"switch_prepare_s", "s"},
	{"switch_finish_s", "s"},
	{"cpu_us_per_segment", "us"},
}

// simPhases are the simulator's pipeline phases as Sim.PhaseTimings
// names them (the schedule phase split into plan and serve). A workload
// whose pipeline lacks a phase reports it as 0.
var simPhases = []string{
	"events", "arrivals", "generate", "refill", "plan", "serve",
	"deliver", "transit", "playback", "churn", "record",
}

// The layer probes: each is one timed public call, reported as p50 and
// p99 per call plus n, the number of timed samples (0 when the workload
// does not exercise the layer, so the probe did not run).
var coreProbes = []metricDef{
	{"core.plan_us", "us"},
	{"core.build_candidates_us", "us"},
}

var bufferProbes = []metricDef{
	{"buffer.has_ns", "ns"},
	{"buffer.snapshot_into_ns", "ns"},
	{"buffer.map_encode_ns", "ns"},
	{"buffer.map_decode_ns", "ns"},
}

var netmodelProbes = []metricDef{
	{"netmodel.send_pop_ns", "ns"},
}

// wireKinds are the data-plane frame kinds the wire probes cover.
var wireKinds = []string{"map", "request", "data", "deny"}

func wireProbes() []metricDef {
	var out []metricDef
	for _, dir := range []string{"encode", "decode"} {
		for _, k := range wireKinds {
			out = append(out, metricDef{fmt.Sprintf("runtime.wire.%s_ns.%s", dir, k), "ns"})
		}
	}
	return out
}

func allProbes() []metricDef {
	var out []metricDef
	out = append(out, coreProbes...)
	out = append(out, bufferProbes...)
	out = append(out, netmodelProbes...)
	out = append(out, wireProbes()...)
	return out
}

// perLayer is the traced run's catalog (--trace 1).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"scenario.compile_s", "s"},
		{"sim.new_s", "s"},
		{"runtime.from_scenario_s", "s"},
	}
	for _, ph := range simPhases {
		defs = append(defs, metricDef{"sim.phase." + ph + "_s", "s"})
	}
	for _, ph := range simPhases {
		defs = append(defs,
			metricDef{"sim.phase." + ph + ".allocs_per_tick", "allocs/tick"},
			metricDef{"sim.phase." + ph + ".bytes_per_tick", "B/tick"})
	}
	defs = append(defs,
		metricDef{"sim.tick_ms_p50", "ms"},
		metricDef{"sim.ticks", "count"},
		metricDef{"sim.frames_sent", "count"},
		metricDef{"sim.frames_delivered", "count"},
		metricDef{"sim.frames_lost", "count"},
		metricDef{"sim.frames_rerequested", "count"},
		metricDef{"sim.delivered_per_sent", "share"},
	)
	for _, p := range allProbes() {
		defs = append(defs,
			metricDef{p.Name + ".p50", p.Unit},
			metricDef{p.Name + ".p99", p.Unit},
			metricDef{p.Name + ".n", "count"})
	}
	defs = append(defs,
		metricDef{"runtime.wire.map_bytes", "B"},
		metricDef{"live.periods", "count"},
		metricDef{"live.overrun_share", "share"},
		metricDef{"live.period_ms_p50", "ms"},
		metricDef{"live.frames_sent", "count"},
		metricDef{"live.frames_delivered", "count"},
		metricDef{"live.frames_lost", "count"},
		metricDef{"live.frames_inbox_dropped", "count"},
		metricDef{"live.frames_kernel_drops", "count"},
		metricDef{"live.frames_unaccounted", "count"},
		metricDef{"live.inbox_depth_max", "count"},
		metricDef{"live.playback_holes", "count"},
		metricDef{"live.rerequests", "count"},
		metricDef{"switch.fail_share", "share"},
		metricDef{"switch.windows", "count"},
		metricDef{"obs.overhead_share", "share"},
	)
	return defs
}

// Naming rule for metric names and units (see BENCHMARK.json's
// contract): a name starts with a letter or digit and holds at most 64
// letters, digits, '_', '.' and '-'; a unit at most 16 letters, digits,
// '_', '/', '%', '.' and '-'.
var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metric map for a catalog from raw values; a catalog
// entry without a value reports 0 (a layer the workload bypasses). A
// value outside the catalog is a bug in the benchmark.
func fill(catalog []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalog))
	known := make(map[string]bool, len(catalog))
	for _, d := range catalog {
		known[d.Name] = true
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return out, nil
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// usage is a process resource snapshot.
type usage struct {
	cpu    time.Duration // user + system CPU of every thread
	maxRSS int64         // high-water resident set, KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Getrusage(RUSAGE_SELF) cannot fail on a valid pointer.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
	}
}
