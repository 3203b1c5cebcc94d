package main

import (
	_ "embed"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"gossipstream/internal/obs"
	gsruntime "gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

//go:embed lossy-churn.scn
var lossyChurnScenario string

// workload is one input set the benchmark runs.
type workload struct {
	Name string
	Why  string
	// Live selects the live runtime over loopback UDP instead of the
	// simulator.
	Live bool
	// Workers is the simulator's engine concurrency.
	Workers int
	// RunCost is the nominal wall seconds of one complete run, setup
	// included, on the reference host (2 vCPUs); it converts the
	// seconds argument into a fixed number of runs.
	RunCost float64
	// SetupReps is the number of setup-only repetitions per topology.
	SetupReps int
	// scenario builds the workload's scenario at the given seed; nodes
	// > 0 overrides the overlay size (shortened test runs only).
	scenario func(seed int64, nodes int) (*scenario.Scenario, error)
}

var workloads = []workload{
	{
		Name:      "sim-switch",
		Why:       "the paper's single planned switch at N=5000 on 2 engine workers: sharded plan and serve-commit paths",
		Workers:   2,
		RunCost:   7,
		SetupReps: 5,
		scenario: func(seed int64, nodes int) (*scenario.Scenario, error) {
			return seeded(scenario.PaperSingleSwitch(), seed, nodes, 5000), nil
		},
	},
	{
		Name:      "sim-lossy-churn",
		Why:       "lossy sub-tick transport plus churn and two switches at N=500, serial engine: netmodel transit, churn, re-requests",
		Workers:   1,
		RunCost:   6.5,
		SetupReps: 40,
		scenario: func(seed int64, nodes int) (*scenario.Scenario, error) {
			sc, err := scenario.Parse(strings.NewReader(lossyChurnScenario))
			if err != nil {
				return nil, fmt.Errorf("lossy-churn.scn: %w", err)
			}
			return seeded(sc, seed, nodes, sc.Nodes), nil
		},
	},
	{
		Name:      "live-udp-chain",
		Why:       "three serial handoffs on the live runtime over loopback UDP at N=150, 50x timescale: peers, wire codecs, sockets",
		Live:      true,
		RunCost:   10,
		SetupReps: 100,
		scenario: func(seed int64, nodes int) (*scenario.Scenario, error) {
			return seeded(scenario.SerialHandoffChain(), seed, nodes, 150), nil
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seeded sizes a scenario to nodes (or def when nodes is 0) and gives
// it the benchmark's seed, which drives topology synthesis and every
// random decision of the run.
func seeded(sc *scenario.Scenario, seed int64, nodes, def int) *scenario.Scenario {
	if nodes <= 0 {
		nodes = def
	}
	out := sc.Scaled(nodes)
	out.Seed = seed
	return out
}

// setup is one timed compilation of the workload: the scenario's
// sim.Config (trace synthesis plus min-degree augmentation) and the
// backend built from it.
type setup struct {
	cfg     sim.Config
	sim     *sim.Sim
	live    *gsruntime.Runner
	compile time.Duration // scenario.Config
	build   time.Duration // sim.New or runtime.FromScenario
}

func (s setup) total() time.Duration { return s.compile + s.build }

// discard releases a setup that will not run.
func (s setup) discard() {
	if s.live != nil {
		s.live.Abort()
	}
}

// newSetup compiles the scenario and builds its backend, attaching o.
func (w workload) newSetup(sc *scenario.Scenario, o *obs.Obs) (setup, error) {
	var st setup
	t0 := time.Now()
	cfg, err := sc.Config(sim.Fast)
	st.compile = time.Since(t0)
	if err != nil {
		return st, err
	}
	st.cfg = cfg
	t1 := time.Now()
	if w.Live {
		st.live, err = gsruntime.FromScenario(sc, sim.Fast, gsruntime.Options{
			Transport: gsruntime.NewUDPTransport(sc.Seed ^ 0x11fe),
			Obs:       o,
		})
	} else {
		cfg.Workers = w.Workers
		cfg.Obs = o
		st.cfg = cfg
		st.sim, err = sim.New(cfg)
	}
	st.build = time.Since(t1)
	return st, err
}

// run is one complete, checked execution of a setup.
type run struct {
	wall, cpu time.Duration
	res       *sim.Result
	// delivered counts data segments that reached a requester.
	delivered int64
	// frames are the simulator's sent/delivered/lost/re-requested data
	// counters (zero for live runs).
	frames [4]int64
	live   gsruntime.LiveStats
	tau    float64 // scheduling period, seconds
	// checkErr is the output check's verdict: the run-invariant checker
	// (sim.CheckInvariants or sim.CheckLiveInvariants).
	checkErr error
}

// execute runs a setup to completion with the process otherwise idle,
// timing wall and CPU, and checks its output. reg is the registry
// attached to a simulator setup, the source of its frame counters; nil
// leaves them zero (a bare run). A live run's counters come from
// Runner.Stats.
func (w workload) execute(st setup, reg *obs.Registry) (run, error) {
	r := run{tau: st.cfg.Defaulted().Tau}
	runtime.GC()
	u0 := readUsage()
	t0 := time.Now()
	var err error
	if w.Live {
		r.res, err = st.live.Run()
	} else {
		r.res, err = st.sim.Run()
	}
	r.wall = time.Since(t0)
	r.cpu = readUsage().cpu - u0.cpu
	if err != nil {
		return r, err
	}
	if w.Live {
		r.live = st.live.Stats()
		r.delivered = r.live.Transport.DataDelivered
		r.checkErr = sim.CheckLiveInvariants(st.cfg, r.res)
	} else if reg != nil {
		snap := reg.Snapshot()
		for i, name := range []string{
			"gossip_frames_sent_total", "gossip_frames_delivered_total",
			"gossip_frames_lost_total", "gossip_frames_rerequested_total",
		} {
			r.frames[i] = snap[name]
		}
		r.delivered = r.frames[1]
	}
	if !w.Live {
		r.checkErr = sim.CheckInvariants(st.cfg, r.res)
	}
	if r.checkErr == nil && r.delivered == 0 && (w.Live || reg != nil) {
		r.checkErr = fmt.Errorf("run delivered no data segments")
	}
	return r, nil
}

// switches is the switch account of one run. Every switch window is
// one operation; its cohort members are counted too, for the member
// share and the mean switch times.
type switches struct {
	windows int
	// failed counts the windows in which most cohort members missed the
	// switch.
	failed int
	// members and missed count cohort members over all windows, and
	// those unfinished or unprepared when their window closed.
	members, missed int64
	// Sums and counts behind the mean prepare and finish times, in
	// scenario seconds. A member that never prepared (finished) counts
	// at its window's close time, MeasuredTicks×τ.
	prepSum, finSum float64
	prepN, finN     int64
}

// account tallies a run's switch windows. A member misses its switch
// when it is unfinished or unprepared at window close; the result
// reports only the two counts, not their overlap, so a window's misses
// are taken as min(cohort, unfinished+unprepared) — exact when one set
// contains the other, and never an undercount. A window fails when more
// than half of its cohort missed: how many members straggle on the live
// runtime depends on wall-clock scheduling, while whether most of them
// switch does not, so the failed count repeats across runs.
func account(res *sim.Result, tau float64) switches {
	var s switches
	for _, w := range res.Windows {
		if w.Kind != "switch" {
			continue
		}
		s.windows++
		closeAt := float64(w.MeasuredTicks) * tau
		for _, t := range w.PrepareS2Times {
			s.prepSum += t
		}
		for _, t := range w.FinishS1Times {
			s.finSum += t
		}
		s.prepSum += float64(w.UnpreparedS2) * closeAt
		s.finSum += float64(w.UnfinishedS1) * closeAt
		s.prepN += int64(len(w.PrepareS2Times) + w.UnpreparedS2)
		s.finN += int64(len(w.FinishS1Times) + w.UnfinishedS1)
		missed := min(w.Cohort, w.UnfinishedS1+w.UnpreparedS2)
		s.members += int64(w.Cohort)
		s.missed += int64(missed)
		if 2*missed > w.Cohort {
			s.failed++
		}
	}
	return s
}

func (s switches) prepareMean() float64 { return s.prepSum / float64(max(s.prepN, 1)) }
func (s switches) finishMean() float64  { return s.finSum / float64(max(s.finN, 1)) }

// sameOutput reports whether two simulator runs of one seed produced
// identical switch windows and frame counters — the determinism
// contract a pure-speed change must keep.
func sameOutput(a, b run) bool {
	return a.frames == b.frames && reflect.DeepEqual(a.res.Windows, b.res.Windows)
}

// outcome collects the checked runs of one benchmark invocation.
type outcome struct {
	correct           bool
	attempted, failed int64
	// members and missed are the member counts behind
	// switch.fail_share.
	members, missed int64
	notes           []string
}

// record folds one run into the outcome: its switch windows become
// attempted operations, all of them failed (and every member missed)
// when the run's output check failed.
func (o *outcome) record(w workload, r run, first *run) {
	sw := account(r.res, r.tau)
	o.attempted += int64(sw.windows)
	o.members += sw.members
	bad := r.checkErr != nil
	if bad {
		o.notes = append(o.notes, fmt.Sprintf("%s: output check failed: %v", w.Name, r.checkErr))
	}
	if !w.Live && first != nil && !sameOutput(*first, r) {
		bad = true
		o.notes = append(o.notes, fmt.Sprintf("%s: switch times or frame counts drifted between runs of one seed", w.Name))
	}
	if bad {
		o.correct = false
		o.failed += int64(sw.windows)
		o.missed += sw.members
	} else {
		o.failed += int64(sw.failed)
		o.missed += sw.missed
	}
}
