package baseline

import (
	"fmt"
	"math/rand"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/workload"
)

// RandomPartitionOf builds a PartitionOf function for the Fig. 4 / §A.1.4
// sweeps: APIs in apiNames are split across n partitions at random
// (seeded); unlisted APIs follow their type's base partition modulo n.
func RandomPartitionOf(apiNames []string, n int, seed int64) func(*framework.API) int {
	rng := rand.New(rand.NewSource(seed))
	assign := make(map[string]int, len(apiNames))
	// Guarantee every partition is populated before randomizing the rest.
	for i, name := range apiNames {
		if i < n {
			assign[name] = i
			continue
		}
		assign[name] = rng.Intn(n)
	}
	return func(api *framework.API) int {
		if p, ok := assign[api.Name]; ok {
			return p
		}
		return int(api.TrueType) % n
	}
}

// TypePartitionOf reproduces FreePart's default four type partitions as an
// explicit partition function (the K=4 point of the Fig. 4 sweep).
func TypePartitionOf(cat *analysis.Categorization) func(*framework.API) int {
	return func(api *framework.API) int {
		switch cat.TypeOf(api.Name) {
		case framework.TypeLoading:
			return 0
		case framework.TypeProcessing:
			return 1
		case framework.TypeVisualizing:
			return 2
		case framework.TypeStoring:
			return 3
		default:
			return 1
		}
	}
}

// SplitHotPairPartitionOf is the adversarial 5-partition split of §3
// (Fig. 4's explanation): the hot-loop pair cv.rectangle / cv.putText is
// torn apart into separate partitions.
func SplitHotPairPartitionOf(cat *analysis.Categorization) func(*framework.API) int {
	base := TypePartitionOf(cat)
	return func(api *framework.API) int {
		if api.Name == "cv.putText" {
			return 4
		}
		return base(api)
	}
}

// annotateWorkload is the Fig. 4 sweep workload: the annotation-dominated
// phase of the motivating example where cv.rectangle and cv.putText run in
// a hot loop over the full sheet ("used to annotate different answers in
// an input image", §3). Splitting that pair across partitions forces the
// canvas to ping-pong, which is exactly the overhead cliff the paper
// reports.
func annotateWorkload(k *kernel.Kernel, ex core.Caller, sheets, questions, options, cell int) error {
	gen := workload.New(99)
	for i := 0; i < sheets; i++ {
		path := fmt.Sprintf("/omr/%03d.img", i)
		enc, _ := gen.EncodedOMRSheet(questions, options, cell)
		k.FS.WriteFile(path, enc)
		imgs, _, err := ex.Call("cv.imread", framework.Str(path))
		if err != nil {
			return err
		}
		blur, _, err := ex.Call("cv.GaussianBlur", imgs[0].Value())
		if err != nil {
			return err
		}
		canvas := blur[0]
		for q := 0; q < questions; q++ {
			for o := 0; o < options; o++ {
				out, _, err := ex.Call("cv.rectangle", canvas.Value(),
					framework.Int64(int64(o*cell)), framework.Int64(int64(q*cell)),
					framework.Int64(int64(cell)), framework.Int64(int64(cell)))
				if err != nil {
					return err
				}
				canvas = out[0]
				out, _, err = ex.Call("cv.putText", canvas.Value(), framework.Str("A"),
					framework.Int64(int64(o*cell+1)), framework.Int64(int64(q*cell+1)))
				if err != nil {
					return err
				}
				canvas = out[0]
			}
		}
		if _, _, err := ex.Call("cv.imshow", framework.Str("omr"), canvas.Value()); err != nil {
			return err
		}
		if _, _, err := ex.Call("cv.imwrite", framework.Str("/omr/out.img"), canvas.Value()); err != nil {
			return err
		}
	}
	return nil
}

// MeasurePartitioned runs the annotation workload under a custom K-way
// partitioning, with bubbles of cell pixels, and returns its virtual time.
func MeasurePartitioned(partitions int, partitionOf func(*framework.API) int, sheets, questions, options, cell int) (Perf, error) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	cfg := core.Default()
	cfg.AppAPIs = OMRAPIs()
	cfg.Partitions = partitions
	cfg.PartitionOf = partitionOf
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		return Perf{}, err
	}
	defer rt.Close()
	start := k.Clock.Now()
	if err := annotateWorkload(k, rt, sheets, questions, options, cell); err != nil {
		return Perf{}, err
	}
	snap := rt.Metrics.Snapshot()
	return Perf{
		Technique: "partitions",
		IPCs:      snap.IPCCalls, Bytes: snap.BytesMoved,
		Time: k.Clock.Now() - start,
	}, nil
}

// SweepPartitions measures average runtime for each partition count in
// [from, to], sampling `samples` random assignments per count (the Fig. 4
// experiment, subsampled like the paper's 7,750-per-K runs), with bubbles
// of cell pixels.
func SweepPartitions(from, to, samples, sheets, cell int) (map[int]float64, error) {
	out := make(map[int]float64, to-from+1)
	apiNames := OMRAPIs()
	cat := analysis.New(all.Registry(), nil).Categorize()
	for n := from; n <= to; n++ {
		if n == 4 {
			// K=4 is FreePart's type-based partitioning — the fixed point
			// the random finer-grained splits are compared against.
			p, err := MeasurePartitioned(4, TypePartitionOf(cat), sheets, 8, 4, cell)
			if err != nil {
				return nil, err
			}
			out[4] = float64(p.Time)
			continue
		}
		var total float64
		runs := 0
		for s := 0; s < samples; s++ {
			p, err := MeasurePartitioned(n, RandomPartitionOf(apiNames, n, int64(n*1000+s)), sheets, 8, 4, cell)
			if err != nil {
				return nil, err
			}
			total += float64(p.Time)
			runs++
		}
		out[n] = total / float64(runs)
	}
	return out, nil
}
