package core

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/tensor"
)

// PredictResult is one request's outcome within a PredictBatch call:
// either the predicted full-domain frame or that request's own error.
type PredictResult struct {
	Frame *tensor.Tensor
	Err   error
}

// batchChunk returns how many images of a rank's halo-extended
// subdomain to push through one batched forward call. Bigger chunks
// amortize per-layer call overhead (arena brackets, output
// allocations, tile setup); smaller chunks keep the chunk's
// inter-layer activations L2-resident, which is what makes the
// batch-of-1 rollout path fast in the first place — a whole-batch
// tensor at coarse partitions streams every layer boundary through
// memory instead. The heuristic bounds the peak in+out activation
// footprint of a chunk by a fixed budget. It depends only on the
// model and subdomain shape — never on worker count or load — so
// batched results are reproducible run to run.
func (eng *Engine) batchChunk(he, we int) int {
	const budgetBytes = 1 << 20
	maxPair := 1
	ch := eng.ens.ModelCfg.Channels
	for i := 0; i+1 < len(ch); i++ {
		if s := ch[i] + ch[i+1]; s > maxPair {
			maxPair = s
		}
	}
	per := maxPair * he * we * 8
	n := budgetBytes / per
	if n < 1 {
		n = 1
	}
	return n
}

// PredictBatch evaluates one step for a micro-batch of independent
// requests — each a history of full-domain states as in Predict — in
// a single pass over the rank models: per rank, the requests'
// halo-extended subdomain inputs are stacked along the batch axis and
// forwarded through ONE model clone in cache-sized chunks
// (DESIGN.md §9), so a batch of B requests costs one clone-set
// acquisition and ~1/B of the per-call fixed overhead of B Predict
// calls, and each convolution layer sweeps the whole chunk in one
// kernel call.
//
// Per-request error isolation: a request that fails validation
// (ErrBadWindow, ErrShapeMismatch) gets its own PredictResult.Err and
// does not poison the rest of the batch. The returned slice always
// has len(reqs) entries, index-aligned with reqs. A non-nil top-level
// error (cancelled context, empty batch, an engine that cannot serve
// Predict at all) means no request was evaluated.
//
// Results are bit-identical to per-request Predict calls: the layers
// guarantee a batched forward equals batch-of-1 forwards image for
// image (nn/batched_test.go), and the inputs assembled here are
// byte-identical to Predict's. The Batcher builds on exactly this
// property to coalesce concurrent Predict callers transparently.
func (eng *Engine) PredictBatch(ctx context.Context, reqs [][]*tensor.Tensor) ([]PredictResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if eng.local != nil {
		return nil, fmt.Errorf("core: PredictBatch evaluates every rank in-process; this engine's world hosts only rank(s) %v — build an engine without WithWorld for one-step prediction", eng.world.LocalRanks())
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("core: PredictBatch of zero requests")
	}
	if eng.ens.ModelCfg.Strategy == model.InnerCrop {
		return nil, fmt.Errorf("core: the inner-crop strategy cannot serve: its output omits the subdomain interface points (paper §III)")
	}
	window := eng.ens.window()
	out := make([]PredictResult, len(reqs))
	valid := make([]int, 0, len(reqs))
	for i, states := range reqs {
		if _, err := eng.validateStates(states); err != nil {
			out[i].Err = err
			continue
		}
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return out, nil
	}

	p := eng.ens.Partition
	halo := eng.ens.ModelCfg.Halo()
	c := reqs[valid[0]][0].Dim(0) // validation pins c·window to the model's input channels
	cw := c * window

	// One SplitCHW per (request, history frame): pieces[vi][k][r] is
	// rank r's halo-extended slice of valid request vi's k-th newest
	// window frame — the same slicing Predict performs per request.
	pieces := make([][][]*tensor.Tensor, len(valid))
	for vi, i := range valid {
		states := reqs[i]
		pieces[vi] = make([][]*tensor.Tensor, window)
		for k := 0; k < window; k++ {
			pieces[vi][k] = p.SplitCHW(states[len(states)-window+k], halo)
		}
	}

	rm := eng.acquire()
	defer eng.release(rm)
	parts := make([][]*tensor.Tensor, len(valid))
	for vi := range parts {
		parts[vi] = make([]*tensor.Tensor, p.Ranks())
	}

	// Ranks are independent models with disjoint outputs, so with
	// WithWorkers(n) they fan out to goroutines on top of each clone's
	// own intra-layer parallelism; each rank is served by exactly one
	// task, so clone caches are never shared. Assignment of ranks to
	// workers cannot change any result (per-rank work is identical).
	rankWorkers := 1
	if eng.workersSet && eng.workers > 1 {
		rankWorkers = eng.workers
	}
	tensor.ParallelFor(p.Ranks(), rankWorkers, func(r int) {
		b := p.BlockOfRank(r)
		bh, bw := b.Height(), b.Width()
		he, we := bh+2*halo, bw+2*halo
		perIn := cw * he * we
		perFrame := c * he * we
		perOut := c * bh * bw
		chunk := eng.batchChunk(he, we)
		for i0 := 0; i0 < len(valid); i0 += chunk {
			i1 := min(i0+chunk, len(valid))
			in := tensor.New(i1-i0, cw, he, we)
			d := in.Data()
			for vi := i0; vi < i1; vi++ {
				base := (vi - i0) * perIn
				for k := 0; k < window; k++ {
					copy(d[base+k*perFrame:base+(k+1)*perFrame], pieces[vi][k][r].Data())
				}
			}
			y := rm.models[r].Forward(in)
			if y.Dim(2) != bh || y.Dim(3) != bw {
				panic(fmt.Sprintf("core: rank %d produced %v for block %v", r, y.Shape(), b))
			}
			yd := y.Data()
			for vi := i0; vi < i1; vi++ {
				parts[vi][r] = tensor.FromSlice(yd[(vi-i0)*perOut:(vi-i0+1)*perOut], c, bh, bw)
			}
		}
	})

	for vi, i := range valid {
		out[i].Frame = p.GatherCHW(parts[vi])
	}
	return out, nil
}
