package simtorch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/vclock"
)

// FuzzDecodeModel: no model file panics the decoder, an accepted one's
// layers re-encode to a prefix of the input (the decoder ignores trailing
// bytes), and the framing check torch.load and torch.Module.forward run
// accepts exactly what the decoder accepts, with the same error and layer
// count.
func FuzzDecodeModel(f *testing.F) {
	f.Add(EncodeModel([][]float64{{1, 0, 0, 1}, {}, {0.5}}))
	// 2^32−1 layers in no layer bytes: sized by the header alone, the layer
	// slice asked for about 96 GB and the runtime died out of memory.
	f.Add([]byte("PTM1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		layers, err := DecodeModel(b)
		if err == nil && !bytes.HasPrefix(b, EncodeModel(layers)) {
			t.Fatalf("accepted %d layers that do not re-encode to a prefix of the input", len(layers))
		}
		walk, cerr := checkModel(b)
		switch {
		case (err == nil) != (cerr == nil):
			t.Fatalf("checkModel error %v, DecodeModel error %v", cerr, err)
		case err != nil && err.Error() != cerr.Error():
			t.Fatalf("checkModel error %q, DecodeModel error %q", cerr, err)
		case err == nil && walk.n != len(layers):
			t.Fatalf("checkModel counted %d layers, DecodeModel decoded %d", walk.n, len(layers))
		}
	})
}

// TestCheckModelAllocatesNothing: checking a model's framing and walking
// its layers reads the weights where they lie and allocates nothing.
func TestCheckModelAllocatesNothing(t *testing.T) {
	model := EncodeModel([][]float64{make([]float64, 4096), {1, 2}, {}})
	var sum float64
	allocs := testing.AllocsPerRun(20, func() {
		walk, err := checkModel(model)
		for err == nil && walk.more() {
			var l []byte
			if l, err = walk.next(); err == nil && len(l) > 0 {
				sum += weight(l, len(l)/8-1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || sum != 2*21 {
		t.Fatalf("%.0f allocs per walk (want 0), weights summed to %v (want %v)", allocs, sum, 2*21)
	}
}

// decodedForward is torch.Module.forward as it ran before it read weights
// in place: the model's payload is loaded and decoded whole with
// DecodeModel, then the layers run over the decoded slices.
// FuzzModelForward holds the forward to it.
func decodedForward(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	model, err := ctx.Blob(args[0])
	if err != nil {
		return nil, err
	}
	raw, err := model.Bytes()
	if err != nil {
		return nil, err
	}
	if fired, err := ctx.MaybeExploit(&framework.API{CVEs: []string{CVEStegoNet}}, raw); fired {
		return nil, err
	}
	layers, err := DecodeModel(stripTrojan(raw))
	if err != nil {
		return nil, err
	}
	in, err := tensorArg(ctx, args, 1)
	if err != nil {
		return nil, err
	}
	x, err := in.Values()
	if err != nil {
		return nil, err
	}
	ctx.Charge(in.Size(), 16)
	for li, w := range layers {
		if len(x) == 0 || len(w)%len(x) != 0 {
			return nil, fmt.Errorf("simtorch: layer %d (%d weights) incompatible with input %d", li, len(w), len(x))
		}
		outN := len(w) / len(x)
		next := make([]float64, outN)
		for i := 0; i < outN; i++ {
			s := 0.0
			for j := range x {
				s += w[i*len(x)+j] * x[j]
			}
			if li < len(layers)-1 && s < 0 {
				s = 0
			}
			next[i] = s
		}
		x = next
	}
	v, err := newOut(ctx, []int{len(x)}, x)
	if err != nil {
		return nil, err
	}
	return []framework.Value{v}, nil
}

// forwardRun is what one forward call left behind.
type forwardRun struct {
	err   string
	out   []uint64 // the output tensor's values, as bits
	virt  vclock.Duration
	stats mem.Stats
	alive bool
}

// maxFuzzInput caps the fuzzed input tensor's length, and maxFuzzModel the
// model's bytes, above every seed. The bytes past a cap change nothing, so
// the fuzzer's minimizer, quadratic in an input's length, cuts them first
// and stays fast.
const (
	maxFuzzInput = 16
	maxFuzzModel = 1 << 10
)

// runForward runs impl as torch.Module.forward on a fresh process holding
// the model blob and, when input has a value, the input tensor (its
// big-endian float64s). It measures virtual time and memory counters from
// after that set-up.
func runForward(t *testing.T, impl framework.Impl, model, input []byte) forwardRun {
	k := kernel.New()
	ctx := framework.NewCtx(k, k.Spawn("fuzz"))
	id, _, err := ctx.NewBlob(model)
	if err != nil {
		t.Fatal(err)
	}
	args := []framework.Value{framework.Obj(id)}
	if n := min(len(input)/8, maxFuzzInput); n > 0 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(input[8*i:]))
		}
		tid, tt, err := ctx.NewTensor(n)
		if err == nil {
			err = tt.SetValues(vals)
		}
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, framework.Obj(tid))
	}
	api := &framework.API{Name: "torch.Module.forward", Framework: Name, CVEs: []string{CVEStegoNet}, Impl: impl}
	space, v0, s0 := ctx.P.Space(), k.Clock.Now(), ctx.P.Space().Stats()
	out, err := api.Exec(ctx, args)
	run := forwardRun{virt: k.Clock.Now() - v0, stats: space.Stats(), alive: ctx.P.Alive()}
	run.stats.Loads -= s0.Loads
	run.stats.BytesLoaded -= s0.BytesLoaded
	run.stats.Stores -= s0.Stores
	run.stats.BytesStored -= s0.BytesStored
	if err != nil {
		run.err = err.Error()
		return run
	}
	tt, err := ctx.Tensor(out[0])
	if err != nil {
		t.Fatal(err)
	}
	vals, err := tt.Values()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		run.out = append(run.out, math.Float64bits(v))
	}
	return run
}

// forwardInput encodes input values for FuzzModelForward.
func forwardInput(vals ...float64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzModelForward: for any model bytes, up to maxFuzzModel of them, and
// input values, torch.Module.forward, which checks the model's framing and then reads the
// weights in place, gives the bit-identical output of a forward that
// decodes the model with DecodeModel first, or the same error at the same
// point: the same virtual time charged and the same loads and stores made.
// A malformed model fails before the input tensor is loaded or any compute
// is charged.
func FuzzModelForward(f *testing.F) {
	twoLayer := EncodeModel([][]float64{{1, -2, 0.5, 3}, {1, -1}})
	f.Add(twoLayer, forwardInput(1, 2))
	f.Add(twoLayer, forwardInput(-1, math.NaN()))
	f.Add(EncodeModel(nil), forwardInput(4))
	f.Add(EncodeModel([][]float64{{1, 2, 3}}), forwardInput(1, 2))
	f.Add(EncodeModel([][]float64{{1, 2}, {}}), forwardInput(1, 2))
	f.Add(twoLayer[:len(twoLayer)-3], forwardInput(1, 2))
	f.Add(twoLayer, []byte{})
	f.Add([]byte("PTM1\xff\xff\xff\xff"), []byte{})
	f.Add(append(slices.Clone(twoLayer), framework.Trigger(CVEStegoNet, []byte("forkbomb"))...), forwardInput(1, 2))
	fwd := Registry().MustGet("torch.Module.forward").Impl
	dispatch := kernel.New().Cost.APIFixed
	f.Fuzz(func(t *testing.T, model, input []byte) {
		model = model[:min(len(model), maxFuzzModel)]
		if len(model) == 0 {
			return // a blob holds at least one byte
		}
		got := runForward(t, fwd, model, input)
		want := runForward(t, decodedForward, model, input)
		if got.err != want.err || !slices.Equal(got.out, want.out) || got.virt != want.virt || got.stats != want.stats || got.alive != want.alive {
			t.Fatalf("forward %+v, decoding forward %+v", got, want)
		}
		if _, err := DecodeModel(stripTrojan(model)); err != nil && got.err == err.Error() {
			if got.stats.Loads != 1 || got.virt != dispatch {
				t.Fatalf("malformed model: %d loads and %v charged before the error, want the model's load and the dispatch cost only", got.stats.Loads, got.virt)
			}
		}
	})
}
