// Command perfbench is the repository's benchmark: it runs one workload
// of the source-switching system for an amount of work sized from its
// --seconds argument, checks every
// run's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Build and run it from the repository root through run.sh, which keeps
// the Go build inside the checkout:
//
//	bash perfbench/run.sh --workload sim-switch --seed 1 --seconds 30 --trace 0
//
// NOTES.md describes the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gossipstream/internal/obs"
	"gossipstream/internal/scenario"
)

func main() {
	var (
		name  = flag.String("workload", "", "workload to run (sim-switch, sim-lossy-churn, live-udp-chain)")
		seed  = flag.Int64("seed", 1, "workload seed: drives topology synthesis and every random decision")
		secs  = flag.Float64("seconds", 30, "measurement length in seconds on the reference host; sets the amount of work")
		trace = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := bench(w, options{seed: *seed, seconds: *secs, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// nodes > 0 overrides the workload's overlay size (shortened test
	// runs only).
	nodes int
}

// bench runs one workload and returns its checked result.
func bench(w workload, opt options) (*result, error) {
	var (
		vals map[string]float64
		out  outcome
		err  error
	)
	catalog := endToEnd
	if opt.traced {
		catalog = perLayer
		vals, out, err = tracedRun(w, opt)
	} else {
		vals, out, err = endToEndRun(w, opt)
	}
	if err != nil {
		return nil, err
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	metrics, err := fill(catalog, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}

// topologySeed derives the k-th topology of an invocation from its
// seed: the same seed always yields the same topologies.
func topologySeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// setupSamples times reps setup-only repetitions (each built, then
// discarded).
func setupSamples(w workload, sc *scenario.Scenario, reps int) (compile, build, total []float64, err error) {
	for i := 0; i < reps; i++ {
		runtime.GC()
		st, err := w.newSetup(sc, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		st.discard()
		compile = append(compile, st.compile.Seconds())
		build = append(build, st.build.Seconds())
		total = append(total, st.total().Seconds())
	}
	return compile, build, total, nil
}

// endToEndRun measures a fixed amount of work, sized from the seconds
// argument alone so that every commit runs the same work: runs =
// seconds/RunCost complete runs (at least one), each on its own
// topology derived from the seed, because a topology moves every
// metric far more than run-to-run noise does. A simulator invocation
// also re-runs its first topology, whose output must repeat exactly.
// Each metric is the mean over topologies of the topology's mean over
// its runs; setup_s is the median of all setup samples.
func endToEndRun(w workload, opt options) (map[string]float64, outcome, error) {
	out := outcome{correct: true}
	topologies := max(1, int(opt.seconds/w.RunCost))
	order := make([]int, topologies)
	for k := range order {
		order[k] = k
	}
	if !w.Live {
		topologies = max(1, topologies-1)
		order = append(order[:topologies], 0)
	}
	var (
		setups []float64
		firsts = make([]*run, topologies)
		sums   = make([]map[string]float64, topologies)
		counts = make([]float64, topologies)
	)
	for _, k := range order {
		sc, err := w.scenario(topologySeed(opt.seed, k), opt.nodes)
		if err != nil {
			return nil, out, err
		}
		if firsts[k] == nil {
			_, _, s, err := setupSamples(w, sc, w.SetupReps)
			if err != nil {
				return nil, out, err
			}
			setups = append(setups, s...)
		}
		var o *obs.Obs
		if !w.Live {
			o = &obs.Obs{Reg: obs.NewRegistry()}
		}
		runtime.GC()
		st, err := w.newSetup(sc, o)
		if err != nil {
			return nil, out, err
		}
		setups = append(setups, st.total().Seconds())
		r, err := w.execute(st, o.Registry())
		if err != nil {
			return nil, out, err
		}
		out.record(w, r, firsts[k])
		if firsts[k] == nil {
			firsts[k] = &r
			sums[k] = map[string]float64{}
		}
		sw := account(r.res, r.tau)
		sums[k]["run_s"] += r.wall.Seconds()
		sums[k]["cpu_s"] += r.cpu.Seconds()
		sums[k]["switch_prepare_s"] += sw.prepareMean()
		sums[k]["switch_finish_s"] += sw.finishMean()
		sums[k]["cpu_us_per_segment"] += float64(r.cpu) / float64(time.Microsecond) / float64(max(r.delivered, 1))
		counts[k]++
	}
	vals := map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": float64(readUsage().maxRSS) / 1024,
	}
	for k := range sums {
		for name, sum := range sums[k] {
			vals[name] += sum / counts[k] / float64(topologies)
		}
	}
	return vals, out, nil
}

// printResult writes one "name value unit" line per metric, then the
// result object as the final line.
func printResult(f *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "%-44s %16.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(line))
}
