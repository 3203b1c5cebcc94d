package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"gossipstream/internal/buffer"
	"gossipstream/internal/core"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	gsruntime "gossipstream/internal/runtime"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim/engine"
)

// Probe inputs are paper-shaped: B=600 segment buffers (a 620-bit wire
// map), M=5 suppliers, Qs=50, p=10 segments/s, τ=1 s, and a switch in
// progress — the old stream's tail still needed (NeedOld) and the first
// Qs segments of the new one (NeedNew).
const (
	probeB       = 600
	probeM       = 5
	probeQs      = 50
	probeS1End   = segment.ID(4000) // first segment of the new stream
	probeEnvs    = 64               // distinct inputs cycled through
	probeSamples = 4000             // timed samples per probe
	probeNodes   = 500              // netmodel population
	probePerPop  = 64               // messages per netmodel send/pop batch
)

// sink keeps probed results observable so the compiler cannot drop the
// calls.
var sink int

// sample times n batches of batch calls to f (after an untimed warm-up
// of n/10 batches) and returns the per-call duration of each batch in
// unit.
func sample(n, batch int, unit time.Duration, f func(i int)) []float64 {
	for i := 0; i < n/10*batch; i++ {
		f(i)
	}
	out := make([]float64, n)
	for s := range out {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			f(s*batch + k)
		}
		out[s] = float64(time.Since(t0)) / float64(batch) / float64(unit)
	}
	return out
}

func report(vals map[string]float64, name string, xs []float64) {
	vals[name+".p50"] = quantile(xs, 0.50)
	vals[name+".p99"] = quantile(xs, 0.99)
	vals[name+".n"] = float64(len(xs))
}

// runProbes times the layer calls the workload exercises: core and
// buffer for every workload, netmodel where its scenario runs the
// network model (net), the wire codecs where it runs the live runtime.
// Probes of bypassed layers report n=0.
func runProbes(w workload, net bool, seed int64, vals map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	envs := switchEnvs(rng)
	if err := probeCore(envs, vals); err != nil {
		return err
	}
	if err := probeBuffer(envs, vals); err != nil {
		return err
	}
	if w.Live {
		return probeWire(rng, envs, vals)
	}
	if net {
		return probeNetmodel(rng, vals)
	}
	return nil
}

// switchEnvs builds scheduler inputs at the switch instant: each
// supplier holds most of the old stream's last B segments and some of
// the new stream's first Qs; the node misses part of the old tail
// between its playhead and the switch point, and most of the new
// stream's startup window.
func switchEnvs(rng *rand.Rand) []*core.Env {
	envs := make([]*core.Env, probeEnvs)
	for e := range envs {
		sup := make([]core.Supplier, probeM)
		for j := range sup {
			b := buffer.New(probeB)
			for id := probeS1End - probeB + probeQs; id < probeS1End; id++ {
				if rng.Float64() < 0.85 {
					b.Insert(id)
				}
			}
			for id := probeS1End; id < probeS1End+probeQs; id++ {
				if rng.Float64() < 0.4 {
					b.Insert(id)
				}
			}
			sup[j] = core.Supplier{ID: core.SupplierID(j), Rate: 10 + 30*rng.Float64(), View: b}
		}
		env := &core.Env{
			Tau: 1, P: 10, Q: 10,
			Inbound:   12 + 10*rng.Float64(),
			Playhead:  probeS1End - segment.ID(20+rng.Intn(40)),
			Suppliers: sup,
		}
		for id := env.Playhead; id < probeS1End; id++ {
			if rng.Float64() < 0.5 {
				env.NeedOld = append(env.NeedOld, id)
			}
		}
		for id := probeS1End; id < probeS1End+probeQs; id++ {
			if rng.Float64() < 0.8 {
				env.NeedNew = append(env.NeedNew, id)
			}
		}
		envs[e] = env
	}
	return envs
}

func probeCore(envs []*core.Env, vals map[string]float64) error {
	var (
		fast  core.FastSwitch
		plan  core.Plan
		cands []core.Candidate
	)
	fast.Plan(envs[0], &plan)
	if len(plan.Requests) == 0 {
		return fmt.Errorf("core: a switch-time plan scheduled no requests")
	}
	report(vals, "core.plan_us", sample(probeSamples, 1, time.Microsecond, func(i int) {
		fast.Plan(envs[i%len(envs)], &plan)
		sink += len(plan.Requests)
	}))
	report(vals, "core.build_candidates_us", sample(probeSamples, 1, time.Microsecond, func(i int) {
		cands = core.BuildCandidates(envs[i%len(envs)], core.ScoreOptions{}, cands[:0])
		sink += len(cands)
	}))
	return nil
}

func probeBuffer(envs []*core.Env, vals map[string]float64) error {
	bufs := make([]*buffer.Buffer, len(envs))
	maps := make([]*buffer.Map, len(envs))
	imgs := make([][]byte, len(envs))
	for i, env := range envs {
		bufs[i] = env.Suppliers[0].View.(*buffer.Buffer)
		maps[i] = bufs[i].Snapshot()
		img, err := maps[i].Encode()
		if err != nil {
			return fmt.Errorf("buffer: encode map: %w", err)
		}
		back, err := buffer.DecodeMap(img, probeB)
		if err != nil || back.Anchor != maps[i].Anchor || back.Count() != maps[i].Count() {
			return fmt.Errorf("buffer: map did not survive its wire round trip (%v)", err)
		}
		imgs[i] = img
	}
	// One Has batch asks for every id a 620-bit map window covers.
	const window = probeB + 20
	lo := probeS1End - probeB + probeQs
	report(vals, "buffer.has_ns", sample(probeSamples, window, time.Nanosecond, func(i int) {
		if bufs[(i/window)%len(bufs)].Has(lo + segment.ID(i%window)) {
			sink++
		}
	}))
	scratch := bufs[0].Snapshot()
	report(vals, "buffer.snapshot_into_ns", sample(probeSamples, 1, time.Nanosecond, func(i int) {
		b := bufs[i%len(bufs)]
		sink += b.SnapshotInto(scratch, b.MinID()).Count()
	}))
	report(vals, "buffer.map_encode_ns", sample(probeSamples, 8, time.Nanosecond, func(i int) {
		img, _ := maps[i%len(maps)].Encode() // the input encoded cleanly above
		sink += len(img)
	}))
	report(vals, "buffer.map_decode_ns", sample(probeSamples, 8, time.Nanosecond, func(i int) {
		m, _ := buffer.DecodeMap(imgs[i%len(imgs)], probeB) // decoded cleanly above
		sink += int(m.Anchor)
	}))
	return nil
}

// probeNetmodel times the transit layer's per-message cost: a batch of
// sends with trace-like pings and 150 ms jitter, then the pop of every
// destination shard at the tick they fall due.
func probeNetmodel(rng *rand.Rand, vals map[string]float64) error {
	pings := make([]int, probeNodes)
	for i := range pings {
		pings[i] = 20 + rng.Intn(280)
	}
	m := netmodel.New(netmodel.Config{PingMS: pings, JitterMS: 150, Loss: 0.05}, 1)
	m.Reserve(probeNodes, 8)
	type msg struct {
		from, to overlay.NodeID
		jitter   float64
	}
	msgs := make([]msg, 16*probeNodes)
	for i := range msgs {
		msgs[i] = msg{overlay.NodeID(rng.Intn(probeNodes)), overlay.NodeID(rng.Intn(probeNodes)), 150 * rng.Float64()}
	}
	shards := engine.NumShards(probeNodes)
	popped := 0
	count := func(netmodel.Message) { popped++ }
	var bad error
	xs := sample(probeSamples, 1, time.Nanosecond, func(tick int) {
		popped = 0
		for k := 0; k < probePerPop; k++ {
			mm := msgs[(tick*probePerPop+k)%len(msgs)]
			m.Send(tick, mm.from, mm.to, segment.ID(k), mm.jitter)
		}
		for s := 0; s < shards; s++ {
			m.PopDue(s, tick, count)
		}
		m.SettleDelivered(popped)
		if popped != probePerPop && bad == nil {
			bad = fmt.Errorf("netmodel: popped %d of %d sub-period messages at their due tick", popped, probePerPop)
		}
	})
	for i := range xs {
		xs[i] /= probePerPop
	}
	report(vals, "netmodel.send_pop_ns", xs)
	return bad
}

// probeWire times the live runtime's frame codec on the data-plane
// frame kinds, each round trip checked before timing.
func probeWire(rng *rand.Rand, envs []*core.Env, vals map[string]float64) error {
	img, err := envs[0].Suppliers[0].View.(*buffer.Buffer).Snapshot().Encode()
	if err != nil {
		return fmt.Errorf("wire: encode map: %w", err)
	}
	msg := netmodel.Message{From: 3, To: 7, Seg: probeS1End + 12, Sent: 160, Due: 160, ArrivalMS: 160_000 + 150*rng.Float64()}
	frames := map[string]gsruntime.Frame{
		"map": {Kind: gsruntime.FrameMap, Msg: msg, MapImg: img, MaxSeen: probeS1End + 40, Rate: 25.5,
			Sessions: []gsruntime.SessionInfo{
				{Source: 1, Begin: 0, End: 1600},
				{Source: 41, Begin: 1600, End: probeS1End},
				{Source: 97, Begin: probeS1End, End: segment.None},
			}},
		"request": {Kind: gsruntime.FrameRequest, Msg: msg},
		"data":    {Kind: gsruntime.FrameData, Msg: msg},
		"deny":    {Kind: gsruntime.FrameDeny, Msg: msg},
	}
	const batch = 16
	for _, kind := range wireKinds {
		f := frames[kind]
		enc := gsruntime.EncodeFrame(f)
		back, err := gsruntime.DecodeFrame(enc)
		if err != nil || back.Kind != f.Kind || back.Msg.Seg != f.Msg.Seg || !bytes.Equal(back.MapImg, f.MapImg) || len(back.Sessions) != len(f.Sessions) {
			return fmt.Errorf("wire: %s frame did not survive its round trip (%v)", kind, err)
		}
		if kind == "map" {
			vals["runtime.wire.map_bytes"] = float64(len(enc))
		}
		report(vals, "runtime.wire.encode_ns."+kind, sample(probeSamples, batch, time.Nanosecond, func(int) {
			sink += len(gsruntime.EncodeFrame(f))
		}))
		report(vals, "runtime.wire.decode_ns."+kind, sample(probeSamples, batch, time.Nanosecond, func(int) {
			d, _ := gsruntime.DecodeFrame(enc) // decoded cleanly above
			sink += int(d.Kind)
		}))
	}
	return nil
}
