package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The rollout workloads: Session.Step back to back over an in-process
// world, with the train workload's 4×4 NeighborPad ensemble on a
// 64×64 grid, trained briefly in set-up. Blocking exchange; `rollout`
// computes in f64, `rollout_f32` in f32.
const (
	rolloutSnaps      = 40
	rolloutTrainSnaps = 16
	rolloutEpochs     = 1
	checkSteps        = 8 // frames compared across exchange modes and precisions
	// A briefly trained ensemble's rollout error grows roughly tenfold
	// every five steps (its 5-step error varies 4× across seeds), so
	// accuracy is scored on the first exchanged step and every session
	// restarts from a solver state after sessionSteps.
	errSteps       = 1
	sessionSteps   = 10
	replaySessions = 3
	f32FrameTol    = 5e-4 // per-step f32 error budget (EXPERIMENTS.md)
)

type rolloutSetup struct {
	ds       *dataset.Dataset
	ens      *core.Ensemble
	eng      *core.Engine // blocking, the workload's precision
	blocking []*tensor.Tensor
	overlap  []*tensor.Tensor
	ref64    []*tensor.Tensor // f64 blocking frames (f32 workload only)
}

// sessionFrames rolls steps frames out of eng from initial.
func sessionFrames(eng *core.Engine, initial *tensor.Tensor, steps int) ([]*tensor.Tensor, error) {
	ctx := context.Background()
	s, err := eng.NewSession(ctx, initial)
	if err != nil {
		return nil, fmt.Errorf("opening session: %w", err)
	}
	defer s.Close()
	var out []*tensor.Tensor
	err = s.Run(ctx, steps, func(_ int, f *tensor.Tensor) error {
		out = append(out, f)
		return nil
	})
	return out, err
}

func setupRollout(seed int64, prec nn.Precision) (*rolloutSetup, error) {
	ds, err := genDataset(trainGrid, rolloutSnaps, seed)
	if err != nil {
		return nil, err
	}
	train, _, err := ds.Split(rolloutTrainSnaps)
	if err != nil {
		return nil, err
	}
	t, err := timedTrain(context.Background(), trainConfig(seed, rolloutEpochs), trainRanks, trainRanks, train, nil)
	if err != nil {
		return nil, err
	}
	st := &rolloutSetup{ds: ds, ens: t.rep.Ensemble()}
	if st.eng, err = core.NewEngine(st.ens, core.WithPrecision(prec)); err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	ovl, err := core.NewEngine(st.ens, core.WithPrecision(prec), core.WithExchangeMode(core.Overlap))
	if err != nil {
		return nil, fmt.Errorf("building overlap engine: %w", err)
	}
	// Warm-up doubles as the output checks' reference runs.
	if st.blocking, err = sessionFrames(st.eng, ds.Snapshots[0], checkSteps); err != nil {
		return nil, err
	}
	if st.overlap, err = sessionFrames(ovl, ds.Snapshots[0], checkSteps); err != nil {
		return nil, err
	}
	if prec == nn.F32 {
		ref, err := core.NewEngine(st.ens)
		if err != nil {
			return nil, err
		}
		if st.ref64, err = sessionFrames(ref, ds.Snapshots[0], checkSteps); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// relL2Pct is the relative L2 error, in %, of a rollout against the
// solver's trajectory: √(Σ‖pred−ref‖²) / √(Σ‖ref‖²).
func relL2Pct(preds, refs []*tensor.Tensor) float64 {
	num, den := 0.0, 0.0
	for k := range preds {
		pd, rd := preds[k].Data(), refs[k].Data()
		for i := range pd {
			d := pd[i] - rd[i]
			num += d * d
			den += rd[i] * rd[i]
		}
	}
	return 100 * math.Sqrt(num/den)
}

func runRollout(c runConfig, res *result, f32 bool) error {
	prec, label := nn.F64, "rollout"
	if f32 {
		prec, label = nn.F32, "rollout_f32"
	}
	st, setupS, err := timeSetup(3, func() (*rolloutSetup, error) { return setupRollout(c.seed, prec) }, nil)
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = setupS
	for k := range st.blocking {
		res.check(bitsEqual(st.blocking[k], st.overlap[k]), "%s: step %d frame differs between Blocking and Overlap exchange", label, k+1)
		if f32 {
			d := maxRelDiff(st.blocking[k], st.ref64[k])
			res.check(d <= float64(k+1)*f32FrameTol, "%s: step %d f32 frame off the f64 frame by %g > budget %g", label, k+1, d, float64(k+1)*f32FrameTol)
		}
	}

	// Accuracy: relative L2 against the solver's trajectory.
	refs := st.ds.Snapshots[1 : 1+errSteps]
	if f32 {
		preds, err := sessionFrames(st.eng, st.ds.Snapshots[0], errSteps)
		res.attempted++
		if err != nil {
			res.fail("%s: accuracy rollout: %v", label, err)
		} else {
			res.e2e["err_pct"] = relL2Pct(preds, refs)
		}
	} else {
		per, err := core.EvaluateRollout(st.ens, st.ds, errSteps)
		res.attempted++
		if err != nil {
			res.fail("%s: EvaluateRollout: %v", label, err)
		} else {
			num, den := 0.0, 0.0
			for k, m := range per {
				n := float64(refs[k].Size())
				num += m.MSE * n
				den += refs[k].Dot(refs[k])
			}
			res.e2e["err_pct"] = 100 * math.Sqrt(num/den)
		}
	}
	res.check(!math.IsNaN(res.e2e["err_pct"]), "%s: rollout error is NaN", label)
	res.note("%s_rel_err %v %% (exact; relative L2 over %d steps vs the Euler reference)", label, res.e2e["err_pct"], errSteps)

	window := c.seconds
	if c.trace {
		window /= 2
	}
	starts := newRNG(c.seed, 2)
	ctx := context.Background()
	type stepStats struct {
		stepMs              []float64
		wall                time.Duration
		msgs, bytes, hm, hb int64
		countsVary          bool
		before, after       memSnap
	}
	measure := func(tr *tracer) (*stepStats, error) {
		ss := &stepStats{msgs: -1}
		res.peak.reset()
		ss.before = readMem()
		start := time.Now()
		for time.Since(start) < window || len(ss.stepMs) < samplesFor(tailPct) {
			s, err := st.eng.NewSession(ctx, st.ds.Snapshots[starts.IntN(rolloutTrainSnaps)])
			if err != nil {
				return nil, fmt.Errorf("opening session: %w", err)
			}
			for k := 0; k < sessionSteps; k++ {
				id := tr.begin("core.session.step", "", -1)
				t0 := time.Now()
				f, err := s.Step(ctx)
				d := time.Since(t0)
				tr.end(id)
				res.attempted++
				if err != nil || f == nil {
					res.fail("%s: Session.Step: %v", label, err)
					continue
				}
				ss.wall += d
				ss.stepMs = append(ss.stepMs, ms(d))
				comm, halo := s.LastStepStats()
				if ss.msgs < 0 {
					ss.msgs, ss.bytes, ss.hm, ss.hb = comm.MessagesSent, comm.BytesSent, halo.MessagesSent, halo.BytesSent
				} else if comm.MessagesSent != ss.msgs || comm.BytesSent != ss.bytes || halo.MessagesSent != ss.hm || halo.BytesSent != ss.hb {
					ss.countsVary = true
				}
			}
			if err := s.Close(); err != nil {
				return nil, fmt.Errorf("closing session: %w", err)
			}
			if len(ss.stepMs)%(10*sessionSteps) == 0 {
				res.peak.sample()
			}
		}
		ss.after = readMem()
		return ss, nil
	}
	ss, err := measure(nil)
	if err != nil {
		return err
	}
	n := len(ss.stepMs)
	rate := float64(n) / ss.wall.Seconds()
	res.note("%s_steps_per_s %.4f steps/s (%d Session.Step calls, blocking exchange, %dx%d ranks on %dx%d)", label, rate, n, trainRanks, trainRanks, trainGrid, trainGrid)
	p90 := res.timing(label+" step", ss.stepMs)
	res.e2e["latency_ms"] = p90
	// Sustained rate: steps/s when every step takes the p90 time (see
	// tailPct).
	res.e2e["throughput_per_s"] = 1e3 / p90
	res.check(!ss.countsVary, "%s: per-step message counts vary between steps", label)
	res.note("mpi per step (exact): %d msgs %d bytes; halo (rank 0) %d msgs %d bytes", ss.msgs, ss.bytes, ss.hm, ss.hb)
	if !c.trace {
		return nil
	}

	zeroLayers(res)
	tr := newTracer(wallClock{time.Now()}.Now)
	traced, err := measure(tr)
	if err != nil {
		return err
	}
	res.layer["trace.overhead_pct"] = 100 * (rate/(float64(len(traced.stepMs))/traced.wall.Seconds()) - 1)
	res.layer["mpi.msgs_per_step"] = float64(ss.msgs)
	res.layer["mpi.bytes_per_step"] = float64(ss.bytes)
	res.layer["mpi.halo_msgs_per_step"] = float64(ss.hm)
	res.layer["mpi.halo_bytes_per_step"] = float64(ss.hb)
	res.layer["runtime.allocs_per_step"] = float64(ss.after.mallocs-ss.before.mallocs) / float64(n)
	res.layer["runtime.alloc_mb_per_step"] = float64(ss.after.bytes-ss.before.bytes) / 1e6 / float64(n)
	res.layer["runtime.gc_cpu_frac"] = gcFrac(ss.before, ss.after)
	peak64, peak32 := gemmPeak(res)
	if err := eulerStep(res, trainGrid, c.seed); err != nil {
		return err
	}
	peak := peak64
	elem := 8.0
	if f32 {
		peak, elem = peak32, 4
	}
	return replayRollout(tr, res, st, f32, peak, elem, label)
}

// replayRollout steps a fresh session and, after each step, replays
// it through the public layer functions — Partition.SplitCHW of the
// previous frame, each rank's layers, Partition.GatherCHW — checking
// the replayed frame against the session's. The session's self time is
// its step time minus the replayed work.
func replayRollout(tr *tracer, res *result, st *rolloutSetup, f32 bool, peak, elem float64, label string) error {
	rp := &rolloutReplay{tr: tr, res: res, st: st, f32: f32, label: label, nr: &netReplay{tr: tr, elemBytes: elem}}
	for r, m := range st.ens.Models {
		net := m.CloneShared()
		if f32 {
			if err := net.SetPrecision(nn.F32); err != nil {
				return err
			}
		}
		b := st.ens.Partition.BlockOfRank(r)
		rp.nets = append(rp.nets, net)
		rp.splits = append(rp.splits, nn.NewHaloSplit(net, b.Height(), b.Width(), st.ens.ModelCfg.Halo()))
	}
	for i := 0; i < replaySessions; i++ {
		if err := rp.session(st.ds.Snapshots[i]); err != nil {
			return err
		}
	}
	rp.nr.report(res, peak)
	if f32 {
		res.layer["nn.f32.net_fwd_ms"] = median(rp.netMs)
	}
	res.layer["decomp.split_ms"] = median(rp.splitMs)
	res.layer["decomp.gather_ms"] = median(rp.gatherMs)
	res.layer["core.session.step_self_ms"] = median(rp.stepMs) - median(rp.replayMs)
	res.spans = tr.snapshot()
	return nil
}

// rolloutReplay repeats Session.Step through the public functions the
// session itself calls — Partition.SplitCHW of the previous frame,
// each rank's nn.HaloSplit forward, Partition.GatherCHW — and checks
// the replayed frame bit for bit. The session's self time is its step
// time minus that replayed work. Each rank's layers are also run one
// at a time on the same input for the nn.* metrics (outside the
// replayed step's time).
type rolloutReplay struct {
	tr     *tracer
	res    *result
	st     *rolloutSetup
	f32    bool
	label  string
	nr     *netReplay
	nets   []*nn.Sequential
	splits []*nn.HaloSplit

	stepMs, replayMs, splitMs, gatherMs, netMs []float64
}

func (rp *rolloutReplay) session(initial *tensor.Tensor) error {
	ctx := context.Background()
	p := rp.st.ens.Partition
	halo := rp.st.ens.ModelCfg.Halo()
	prev := initial
	s, err := rp.st.eng.NewSession(ctx, prev)
	if err != nil {
		return err
	}
	defer s.Close()
	for k := 0; k < sessionSteps; k++ {
		var frame *tensor.Tensor
		d := rp.tr.do("core.session.step", -1, func() { frame, err = s.Step(ctx) })
		rp.res.attempted++
		if err != nil {
			rp.res.fail("%s: replay Session.Step: %v", rp.label, err)
			return nil
		}
		rp.stepMs = append(rp.stepMs, ms(d))

		root := rp.tr.begin("replay.step", "", -1)
		var pieces []*tensor.Tensor
		rp.splitMs = append(rp.splitMs, ms(rp.tr.do("decomp.split", root, func() { pieces = p.SplitCHW(prev, halo) })))
		c := prev.Dim(0)
		ins := make([]*tensor.Tensor, len(rp.nets))
		parts := make([]*tensor.Tensor, len(rp.nets))
		for r, net := range rp.nets {
			b := p.BlockOfRank(r)
			in := pieces[r].Reshape(1, c, b.Height()+2*halo, b.Width()+2*halo)
			ins[r] = in
			var out *tensor.Tensor
			rp.tr.do("nn.halosplit.forward", root, func() {
				if hs := rp.splits[r]; hs != nil {
					out = hs.ForwardComplete(func(y0, y1, x0, x1 int) *tensor.Tensor {
						return tensor.SubImageConcat(y0, y1, x0, x1, in)
					})
				} else {
					out = net.Forward(in)
				}
			})
			parts[r] = out.Reshape(c, b.Height(), b.Width())
		}
		var replayed *tensor.Tensor
		rp.gatherMs = append(rp.gatherMs, ms(rp.tr.do("decomp.gather", root, func() { replayed = p.GatherCHW(parts) })))
		rp.replayMs = append(rp.replayMs, ms(rp.tr.end(root)))
		rp.res.check(bitsEqual(replayed, frame), "%s: replayed step %d differs from Session.Step", rp.label, k+1)

		for r, net := range rp.nets {
			rp.nr.forward(net, ins[r], -1)
			if rp.f32 {
				rp.netMs = append(rp.netMs, ms(rp.tr.do("nn.f32.net_fwd", -1, func() { net.Forward(ins[r]) })))
			}
		}
		prev = frame
	}
	return nil
}
