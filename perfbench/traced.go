package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"

	"gossipstream/internal/obs"
)

// tracedRun produces the per-layer metrics. Every layer is measured from
// outside, through public surfaces only: timed setup calls,
// Sim.PhaseTimings, Runner.Stats and Runner.Snapshot, the obs registry
// and JSONL trace, and timed calls into each layer's public functions
// (the probes). The runs:
//
//  1. setup-only repetitions, for the setup layers;
//  2. a bare run (no obs), for the phase timings and the overhead base;
//  3. a traced run (registry plus JSONL trace), whose trace is validated
//     and read for tick durations;
//  4. simulator only: a CapturePhaseMem run, kept apart because its
//     per-phase ReadMemStats perturbs wall time.
//
// Each run passes the same output checks as an end-to-end run, and the
// simulator's runs must agree with one another exactly.
func tracedRun(w workload, opt options) (map[string]float64, outcome, error) {
	out := outcome{correct: true}
	vals := map[string]float64{}
	sc, err := w.scenario(topologySeed(opt.seed, 0), opt.nodes)
	if err != nil {
		return nil, out, err
	}
	compile, build, _, err := setupSamples(w, sc, w.SetupReps)
	if err != nil {
		return nil, out, err
	}
	vals["scenario.compile_s"] = median(compile)
	if w.Live {
		vals["runtime.from_scenario_s"] = median(build)
	} else {
		vals["sim.new_s"] = median(build)
	}

	// Bare run.
	st, err := w.newSetup(sc, nil)
	if err != nil {
		return nil, out, err
	}
	bare, err := w.execute(st, nil)
	if err != nil {
		return nil, out, err
	}
	out.record(w, bare, nil)
	if !w.Live {
		for _, pt := range st.sim.PhaseTimings() {
			vals["sim.phase."+pt.Name+"_s"] = pt.Total.Seconds()
		}
	}

	// Traced run.
	var buf bytes.Buffer
	o := &obs.Obs{Reg: obs.NewRegistry(), Trace: obs.NewTrace(&buf)}
	if st, err = w.newSetup(sc, o); err != nil {
		return nil, out, err
	}
	var depth inboxDepth
	if w.Live {
		depth.watch(st)
	}
	traced, err := w.execute(st, o.Reg)
	depth.stop()
	if err != nil {
		return nil, out, err
	}
	if err := o.Close(); err != nil {
		return nil, out, fmt.Errorf("close trace: %w", err)
	}
	out.record(w, traced, nil)
	tickNS, err := readTrace(buf.Bytes())
	if err != nil {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("%s: trace check failed: %v", w.Name, err))
	}
	sw := account(traced.res, traced.tau)
	vals["switch.windows"] = float64(sw.windows)
	snap := o.Reg.Snapshot()

	if w.Live {
		// Wall time of a live run is set by its pacing, so the overhead
		// is read off process CPU.
		vals["obs.overhead_share"] = traced.cpu.Seconds()/bare.cpu.Seconds() - 1
		ls := traced.live
		tr := ls.Transport
		vals["live.periods"] = float64(ls.Periods)
		vals["live.overrun_share"] = float64(ls.Overruns) / float64(max(ls.Periods, 1))
		vals["live.period_ms_p50"] = median(tickNS) / 1e6
		vals["live.frames_sent"] = float64(tr.DataSent)
		vals["live.frames_delivered"] = float64(tr.DataDelivered)
		vals["live.frames_lost"] = float64(tr.DataLost)
		vals["live.frames_inbox_dropped"] = float64(tr.InboxDropped)
		vals["live.frames_kernel_drops"] = float64(tr.KernelDrops)
		vals["live.frames_unaccounted"] = float64(tr.DataSent - tr.DataDelivered - tr.DataLost - tr.InboxDropped)
		vals["live.inbox_depth_max"] = float64(depth.max)
		vals["live.playback_holes"] = float64(snap["gossip_playback_holes_total"])
		vals["live.rerequests"] = float64(snap["gossip_frames_rerequested_total"])
	} else {
		vals["obs.overhead_share"] = traced.wall.Seconds()/bare.wall.Seconds() - 1
		if !reflect.DeepEqual(bare.res.Windows, traced.res.Windows) {
			out.correct = false
			out.notes = append(out.notes, w.Name+": traced run's windows differ from the bare run's")
		}
		if n := snap["gossip_tick_ns_count"]; n != int64(len(tickNS)) {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("%s: tick histogram counted %d ticks, trace %d", w.Name, n, len(tickNS)))
		}
		vals["sim.tick_ms_p50"] = median(tickNS) / 1e6
		vals["sim.ticks"] = float64(len(tickNS))
		vals["sim.frames_sent"] = float64(traced.frames[0])
		vals["sim.frames_delivered"] = float64(traced.frames[1])
		vals["sim.frames_lost"] = float64(traced.frames[2])
		vals["sim.frames_rerequested"] = float64(traced.frames[3])
		vals["sim.delivered_per_sent"] = float64(traced.frames[1]) / float64(max(traced.frames[0], 1))

		// Allocation capture run.
		reg := obs.NewRegistry()
		if st, err = w.newSetup(sc, &obs.Obs{Reg: reg}); err != nil {
			return nil, out, err
		}
		st.sim.CapturePhaseMem(true)
		mem, err := w.execute(st, reg)
		if err != nil {
			return nil, out, err
		}
		out.record(w, mem, &traced)
		ticks := float64(max(len(tickNS), 1))
		for _, pt := range st.sim.PhaseTimings() {
			vals["sim.phase."+pt.Name+".allocs_per_tick"] = float64(pt.Allocs) / ticks
			vals["sim.phase."+pt.Name+".bytes_per_tick"] = float64(pt.Bytes) / ticks
		}
	}
	vals["switch.fail_share"] = float64(out.missed) / float64(max(out.members, 1))

	if err := runProbes(w, sc.Net, opt.seed, vals); err != nil {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("%s: probe check failed: %v", w.Name, err))
	}
	return vals, out, nil
}

// readTrace validates a JSONL trace against the obs schema and returns
// the duration of every tick line, in nanoseconds.
func readTrace(b []byte) ([]float64, error) {
	if _, err := obs.ValidateTrace(bytes.NewReader(b)); err != nil {
		return nil, err
	}
	var ticks []float64
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		if ev.T == obs.EvTick {
			ticks = append(ticks, float64(ev.NS))
		}
	}
	if len(ticks) == 0 {
		return nil, fmt.Errorf("trace holds no tick lines")
	}
	return ticks, sc.Err()
}

// inboxDepth samples a live run's published snapshot while it runs and
// keeps the deepest peer inbox seen. The runner publishes one snapshot
// per period (20 ms of wall time at the default timescale), so a 5 ms
// poll sees every one.
type inboxDepth struct {
	max  int
	done chan struct{}
	wg   sync.WaitGroup
}

func (d *inboxDepth) watch(st setup) {
	d.done = make(chan struct{})
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.done:
				return
			case <-tick.C:
				if s := st.live.Snapshot(); s != nil && s.InboxDepth > d.max {
					d.max = s.InboxDepth
				}
			}
		}
	}()
}

// stop ends the watch and waits for the poller; a no-op when none runs.
func (d *inboxDepth) stop() {
	if d.done == nil {
		return
	}
	close(d.done)
	d.wg.Wait()
}
