package all_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcaffe"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/framework/simtorch"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/object"
	"freepart.dev/freepart/internal/vclock"
)

// operands builds a kernel's arguments from fuzz input: shape gives the
// dimensions and integer arguments, one byte each, and vals the tensors'
// elements, 8 big-endian bytes each, cycled. Both run out into defaults. In
// big mode every dimension is large enough that each tensor spans more
// than a page, so its view is the region's own slab.
type operands struct {
	t           *testing.T
	ctx         *framework.Ctx
	shape, vals []byte
	n           int // elements handed out
	big         bool
}

// byte returns the next shape byte, 0 once they run out. In big mode it is
// always 4, which every argument builder turns into a call that succeeds.
func (o *operands) byte() int {
	if o.big {
		return 4
	}
	if len(o.shape) == 0 {
		return 0
	}
	b := o.shape[0]
	o.shape = o.shape[1:]
	return int(b)
}

// dim returns a dimension of a tensor of rank 2 or more.
func (o *operands) dim() int {
	if o.big {
		return 24
	}
	return 1 + o.byte()%6
}

// long returns the length of a 1-D tensor.
func (o *operands) long() int {
	if o.big {
		return 600
	}
	return 1 + o.byte()%16
}

// value returns the next element value.
func (o *operands) value() float64 {
	o.n++
	if n := len(o.vals) / 8; n > 0 {
		return math.Float64frombits(binary.BigEndian.Uint64(o.vals[8*((o.n-1)%n):]))
	}
	return float64(o.n%23) - 11 + 0.25*float64(o.n%3)
}

// tensor allocates a tensor of the given shape filled with values.
func (o *operands) tensor(shape ...int) framework.Value {
	o.t.Helper()
	id, ten, err := o.ctx.NewTensor(shape...)
	if err != nil {
		o.t.Fatal(err)
	}
	vals := make([]float64, ten.Len())
	for i := range vals {
		vals[i] = o.value()
	}
	if err := ten.SetValues(vals); err != nil {
		o.t.Fatal(err)
	}
	return framework.Obj(id)
}

// anyTensor allocates a tensor of rank 1 to 3.
func (o *operands) anyTensor() framework.Value {
	switch o.byte() % 3 {
	case 0:
		return o.tensor(o.long())
	case 1:
		return o.tensor(o.dim(), o.dim())
	}
	return o.tensor(o.dim(), o.dim(), o.dim())
}

// matrix allocates a 2-D tensor.
func (o *operands) matrix() framework.Value { return o.tensor(o.dim(), o.dim()) }

// pair allocates two tensors, the second of the first's shape unless the
// shape bytes ask for a mismatch.
func (o *operands) pair() []framework.Value {
	a := o.anyTensor()
	if o.byte()%8 == 7 {
		return []framework.Value{a, o.anyTensor()}
	}
	return []framework.Value{a, o.tensor(o.shapeOf(a)...)}
}

// shapeOf returns a tensor argument's shape.
func (o *operands) shapeOf(v framework.Value) []int {
	o.t.Helper()
	ten, err := o.ctx.Tensor(v)
	if err != nil {
		o.t.Fatal(err)
	}
	return ten.Shape()
}

// blob allocates a blob holding b.
func (o *operands) blob(b []byte) framework.Value {
	o.t.Helper()
	id, _, err := o.ctx.NewBlob(b)
	if err != nil {
		o.t.Fatal(err)
	}
	return framework.Obj(id)
}

// num returns an integer argument in [lo, lo+span).
func (o *operands) num(lo, span int) framework.Value {
	return framework.Int64(int64(lo + o.byte()%span))
}

// outPath is where the storing kernels write.
const outPath = "/out.bin"

// kernelCase is one API: how to build its arguments, and its reference. A
// tensor kernel's reference is decode-first: it reads each operand with
// Values and stores its output with SetValues, as the kernels ran before
// they read views and filled their outputs in place. A loader's or file
// appender's is the API's implementation as its framework wrote it before
// package tensors shared the loaders. api is the registry's API, for the
// reference's exploit checks. inPlace marks a kernel that writes its first
// argument.
type kernelCase struct {
	api     string
	args    func(o *operands) []framework.Value
	ref     func(api *framework.API) framework.Impl
	inPlace bool
}

// one builds a single tensor of any rank.
func one(o *operands) []framework.Value { return []framework.Value{o.anyTensor()} }

// kernelCases lists every API of simtorch, simflow and simcaffe but those
// heldElsewhere names.
var kernelCases = func() []kernelCase {
	cs := []kernelCase{
		{"torch.tensor", func(o *operands) []framework.Value {
			return []framework.Value{o.num(-1, 40), framework.Float64(o.value())}
		}, refTorchTensor, false},
		{"torch.add", (*operands).pair, refBinop("torch.add", func(a, b float64) float64 { return a + b }), false},
		{"torch.sub", (*operands).pair, refBinop("torch.sub", func(a, b float64) float64 { return a - b }), false},
		{"torch.mul", (*operands).pair, refBinop("torch.mul", func(a, b float64) float64 { return a * b }), false},
		{"torch.matmul", matmulArgs, refMatmul("simtorch", nil), false},
		{"torch.nn.Conv2d", func(o *operands) []framework.Value {
			in := o.matrix()
			if o.big {
				return []framework.Value{in, o.tensor(24, 24)}
			}
			return []framework.Value{in, o.tensor(1+o.byte()%3, 1+o.byte()%3)}
		}, refConv2d, false},
		{"torch.max_pool2d", pool2Args, refPool("simtorch", "torch.max_pool2d", false, false), false},
		{"torch.avg_pool2d", pool2Args, refPool("simtorch", "torch.avg_pool2d", true, false), false},
		{"torch.softmax", one, refSoftmax, false},
		{"torch.mean", one, refReduce(1, func(v []float64) float64 { return sum(v) / float64(len(v)) }), false},
		{"torch.sum", one, refReduce(1, sum), false},
		{"torch.norm", one, refReduce(1, func(v []float64) float64 {
			s := 0.0
			for _, x := range v {
				s += x * x
			}
			return math.Sqrt(s)
		}), false},
		{"torch.argmax", one, refReduce(1, argmax), false},
		{"torch.flatten", one, refCopy(""), false},
		{"torch.reshape", reshapeArgs, refCopy("simtorch: reshape %d elements to %dx%d"), false},
		{"torch.combinations", func(o *operands) []framework.Value { return []framework.Value{o.tensor(o.long())} }, refCombinations, false},
		{"torch.utils.data.DataLoader", func(o *operands) []framework.Value {
			return []framework.Value{o.anyTensor(), o.num(-1, 8)}
		}, refDataLoader, false},
		{"torch.optim.SGD.step", func(o *operands) []framework.Value {
			return append(o.pair(), framework.Float64(float64(o.byte())/64))
		}, refSGD("simtorch: SGD weight/grad mismatch", 1, 0.01, true), true},
		{"torch.save", func(o *operands) []framework.Value {
			return []framework.Value{o.anyTensor(), framework.Str(outPath)}
		}, refTorchSave, false},
		{"torchvision.datasets.MNIST", func(o *operands) []framework.Value {
			o.ctx.K.FS.WriteFile("/mnist/mnist.bin", o.vals)
			return []framework.Value{framework.Str("/mnist")}
		}, refMNIST, false},
		{"torch.load", fileArgs, refTorchLoad, false},
		{"torch.hub.load", downloadArgs("hub.pytorch.org"), refHubLoad, false},
		{"torch.utils.tensorboard.SummaryWriter", func(o *operands) []framework.Value {
			return []framework.Value{framework.Str("/tb"), framework.Float64(o.value())}
		}, refSummaryWriter, false},

		{"tf.nn.conv3d", func(o *operands) []framework.Value {
			if o.big {
				return []framework.Value{o.tensor(24, 24, 24)}
			}
			return []framework.Value{o.tensor(2+o.byte()%4, 2+o.byte()%4, 2+o.byte()%4)}
		}, refConv3d, false},
		{"tf.nn.avg_pool", pool2Args, refPool("simflow", "tf.nn.avg_pool", true, true), false},
		{"tf.nn.max_pool", pool2Args, refPool("simflow", "tf.nn.max_pool", false, true), false},
		{"tf.matmul", matmulArgs, refMatmul("simflow", exploitOnTensor), false},
		{"tf.nn.relu", one, refElementwise(func(v float64) float64 { return math.Max(0, v) }), false},
		{"tf.nn.softplus", one, refElementwise(func(v float64) float64 { return math.Log1p(math.Exp(v)) }), false},
		{"tf.cast", one, refElementwise(math.Trunc), false},
		{"tf.square", one, refElementwise(func(v float64) float64 { return v * v }), false},
		{"tf.reduce_mean", one, refReduce(1, func(v []float64) float64 { return sum(v) / float64(len(v)) }), false},
		{"tf.argmax", one, refReduce(1, argmax), false},
		{"tf.one_hot", func(o *operands) []framework.Value {
			return []framework.Value{o.num(-1, 10), o.num(-1, 10)}
		}, refOneHot, false},
		{"tf.image.resize", func(o *operands) []framework.Value {
			return []framework.Value{o.matrix(), o.num(-1, 9), o.num(-1, 9)}
		}, refResize, false},
		{"tf.estimator.DNNClassifier.train", func(o *operands) []framework.Value {
			return []framework.Value{o.tensor(1 + o.byte()%3), o.anyTensor()}
		}, refTrain, true},
		{"tf.keras.Model.save_weights", saveArgs, refSaveDataset, false},
		{"tf.keras.preprocessing.image.save_img", saveArgs, refSaveDataset, false},
		{"tf.keras.preprocessing.image_dataset_from_directory", func(o *operands) []framework.Value {
			for i, n := 0, 1+o.byte()%3; i < n; i++ {
				cut := min(8*(o.byte()%5), len(o.vals))
				if o.byte()%8 == 7 {
					cut = min(cut+3, len(o.vals))
				}
				o.ctx.K.FS.WriteFile(fmt.Sprintf("/ds/%d", i), o.vals[:cut])
				o.vals = o.vals[cut:]
			}
			return []framework.Value{framework.Str("/ds/")}
		}, refDatasetDir, false},
		{"tf.io.read_file", fileArgs, refReadFile, false},
		{"tf.keras.utils.get_file", downloadArgs("storage.googleapis.com"), refGetFile, false},
		{"tf.debugging.experimental.enable_dump_debug_info", func(o *operands) []framework.Value {
			if o.byte()%2 == 1 {
				return nil
			}
			return []framework.Value{framework.Str("/dbg")}
		}, refDumpDebugInfo, false},

		{"caffe.Net", func(o *operands) []framework.Value {
			var proto strings.Builder
			for i, n := 0, 1+o.byte()%3; i < n; i++ {
				fmt.Fprintf(&proto, "l%d %d\n", i, o.byte()%12-1)
			}
			return []framework.Value{o.blob([]byte(proto.String()))}
		}, refCaffeNet, false},
		{"caffe.Net.Forward", func(o *operands) []framework.Value {
			return []framework.Value{o.anyTensor(), o.anyTensor()}
		}, refCaffeForward, false},
		{"caffe.Net.Backward", one, refElementwiseCharged(10, func(v float64) float64 { return 2 * v }), false},
		{"caffe.Net.CopyTrainedLayersFrom", func(o *operands) []framework.Value {
			dst := o.anyTensor()
			w := o.vals
			if o.big {
				w = make([]byte, 8*400)
			}
			if o.byte()%2 == 1 || len(w) == 0 {
				w = append([]byte{0}, w...) // a blob of whole float64s and a byte
			}
			return []framework.Value{dst, o.blob(w)}
		}, refCopyTrained, true},
		{"caffe.SGDSolver.Step", (*operands).pair, refSGD("simcaffe: solver weight/grad mismatch", 2, 0.01, false), true},
		{"caffe.Blob.Reshape", reshapeArgs, refCopy("simcaffe: reshape %d to %dx%d"), false},
		{"caffe.ReadProtoFromTextFile", fileArgs, refReadProto("caffe.ReadProtoFromTextFile", false), false},
		{"caffe.ReadProtoFromBinaryFile", fileArgs, refReadProto("caffe.ReadProtoFromBinaryFile", true), false},
	}
	for _, name := range []string{"caffe.WriteProtoToTextFile", "caffe.hdf5_save_string", "caffe.Solver.Snapshot"} {
		cs = append(cs, kernelCase{name, saveArgs, refSaveDataset, false})
	}
	for name, f := range map[string]func(float64) float64{
		"torch.relu":    func(v float64) float64 { return math.Max(0, v) },
		"torch.sigmoid": func(v float64) float64 { return 1 / (1 + math.Exp(-v)) },
		"torch.tanh":    math.Tanh,
		"torch.abs":     math.Abs,
		"torch.exp":     math.Exp,
		"torch.neg":     func(v float64) float64 { return -v },
	} {
		cs = append(cs, kernelCase{name, one, refElementwise(f), false})
	}
	slices.SortFunc(cs, func(a, b kernelCase) int { return strings.Compare(a.api, b.api) })
	return cs
}()

// heldElsewhere names the fuzz target that holds each simtorch, simflow and
// simcaffe API that is not a row of kernelCases to its reference.
var heldElsewhere = map[string]string{"torch.Module.forward": "FuzzModelForward"}

// TestEveryTensorAPIIsHeld requires each API of simtorch, simflow and
// simcaffe to be a row of kernelCases or to name the target that holds it
// in heldElsewhere, and not both.
func TestEveryTensorAPIIsHeld(t *testing.T) {
	rows := map[string]bool{}
	for _, c := range kernelCases {
		rows[c.api] = true
	}
	reg := all.Registry()
	for _, api := range reg.All() {
		if api.Framework == simcv.Name {
			continue
		}
		target, held := heldElsewhere[api.Name]
		switch {
		case !rows[api.Name] && !held:
			t.Errorf("%s is no row of FuzzTensorKernels and names no target that holds it", api.Name)
		case rows[api.Name] && held:
			t.Errorf("%s is a row of FuzzTensorKernels, and heldElsewhere names %s", api.Name, target)
		}
	}
	for name := range heldElsewhere {
		if _, ok := reg.Get(name); !ok {
			t.Errorf("heldElsewhere names %s, which is no API", name)
		}
	}
}

// fileArgs writes the value bytes to a file and names it, or names a file
// that does not exist, or passes no path, as a shape byte asks.
func fileArgs(o *operands) []framework.Value {
	switch o.byte() % 8 {
	case 6:
		return nil
	case 7:
		return []framework.Value{framework.Str("/missing")}
	}
	o.ctx.K.FS.WriteFile("/in.bin", o.vals)
	return []framework.Value{framework.Str("/in.bin")}
}

// downloadArgs queues the value bytes as a download from host and names it,
// or queues nothing, or passes no name, as a shape byte asks.
func downloadArgs(host string) func(o *operands) []framework.Value {
	return func(o *operands) []framework.Value {
		switch o.byte() % 8 {
		case 6:
			return nil
		case 7:
		default:
			o.ctx.K.Net.QueueInbound(host, o.vals)
		}
		return []framework.Value{framework.Str("m.bin")}
	}
}

func matmulArgs(o *operands) []framework.Value {
	m, k, n := o.dim(), o.dim(), o.dim()
	k2 := k
	if o.byte()%8 == 7 {
		k2 = o.dim()
	}
	return []framework.Value{o.tensor(m, k), o.tensor(k2, n)}
}

func pool2Args(o *operands) []framework.Value {
	if o.big {
		return []framework.Value{o.matrix()}
	}
	return []framework.Value{o.tensor(1+o.byte()%7, 1+o.byte()%7)}
}

func reshapeArgs(o *operands) []framework.Value {
	t := o.anyTensor()
	n := 1
	for _, d := range o.shapeOf(t) {
		n *= d
	}
	rows := 1 + o.byte()%4
	if o.big || o.byte()%4 != 0 {
		rows = 1 // a valid reshape, n×1
	}
	return []framework.Value{t, framework.Int64(int64(rows)), framework.Int64(int64(n / rows))}
}

func saveArgs(o *operands) []framework.Value {
	return []framework.Value{o.anyTensor(), framework.Str(outPath)}
}

// refOut allocates a result tensor and stores vals with SetValues.
func refOut(ctx *framework.Ctx, shape []int, vals []float64) ([]framework.Value, error) {
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return nil, err
	}
	if err := t.SetValues(vals); err != nil {
		return nil, err
	}
	return []framework.Value{framework.Obj(id)}, nil
}

// tensorsOf resolves args[0..n) to tensors and decodes each with Values.
func tensorsOf(ctx *framework.Ctx, args []framework.Value, n int) ([]*object.Tensor, [][]float64, error) {
	var ts []*object.Tensor
	for i := range n {
		t, err := ctx.Tensor(args[i])
		if err != nil {
			return nil, nil, err
		}
		ts = append(ts, t)
	}
	var vs [][]float64
	for _, t := range ts {
		v, err := t.Values()
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, v)
	}
	return ts, vs, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func argmax(v []float64) float64 {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return float64(best)
}

func refTorchTensor(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		n := 1
		if args[0].Int > 0 {
			n = int(args[0].Int)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = args[1].Float
		}
		ctx.EmitMemOp()
		return refOut(ctx, []int{n}, vals)
	}
}

func refElementwise(f func(float64) float64) func(*framework.API) framework.Impl {
	return refElementwiseCharged(1, f)
}

// refElementwiseCharged maps f over one tensor, charging its size at
// intensity.
func refElementwiseCharged(intensity float64, f func(float64) float64) func(*framework.API) framework.Impl {
	return func(*framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			ts, vs, err := tensorsOf(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			ctx.Charge(ts[0].Size(), intensity)
			ctx.EmitMemOp()
			out := make([]float64, len(vs[0]))
			for i, v := range vs[0] {
				out[i] = f(v)
			}
			return refOut(ctx, ts[0].Shape(), out)
		}
	}
}

func refBinop(name string, f func(a, b float64) float64) func(*framework.API) framework.Impl {
	return func(*framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			a, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			b, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			if a.Len() != b.Len() {
				return nil, fmt.Errorf("simtorch: %s length mismatch %d vs %d", name, a.Len(), b.Len())
			}
			_, vs, err := tensorsOf(ctx, args, 2)
			if err != nil {
				return nil, err
			}
			ctx.Charge(a.Size()+b.Size(), 1)
			ctx.EmitMemOp()
			out := make([]float64, len(vs[0]))
			for i := range out {
				out[i] = f(vs[0][i], vs[1][i])
			}
			return refOut(ctx, a.Shape(), out)
		}
	}
}

// exploitOnTensor is simflow's trigger check over decoded values.
func exploitOnTensor(ctx *framework.Ctx, api *framework.API, vals []float64) (bool, error) {
	raw := make([]byte, 0, len(vals))
	for _, v := range vals {
		if v < 0 || v > 255 || v != math.Trunc(v) {
			break
		}
		raw = append(raw, byte(v))
	}
	return ctx.MaybeExploit(api, raw)
}

func refMatmul(fw string, exploit func(*framework.Ctx, *framework.API, []float64) (bool, error)) func(*framework.API) framework.Impl {
	return func(api *framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			a, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			b, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			sa, sb := a.Shape(), b.Shape()
			if len(sa) != 2 || len(sb) != 2 || sa[1] != sb[0] {
				return nil, fmt.Errorf("%s: matmul %v x %v", fw, sa, sb)
			}
			va, err := a.Values()
			if err != nil {
				return nil, err
			}
			if exploit != nil {
				if fired, err := exploit(ctx, api, va); fired {
					return nil, err
				}
			}
			vb, err := b.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(a.Size()+b.Size(), float64(sa[1]))
			ctx.EmitMemOp()
			m, k, n := sa[0], sa[1], sb[1]
			out := make([]float64, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					s := 0.0
					for x := 0; x < k; x++ {
						s += va[i*k+x] * vb[x*n+j]
					}
					out[i*n+j] = s
				}
			}
			return refOut(ctx, []int{m, n}, out)
		}
	}
}

func refConv2d(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		in, err := ctx.Tensor(args[0])
		if err != nil {
			return nil, err
		}
		kr, err := ctx.Tensor(args[1])
		if err != nil {
			return nil, err
		}
		si, sk := in.Shape(), kr.Shape()
		if len(si) != 2 || len(sk) != 2 || sk[0] > si[0] || sk[1] > si[1] {
			return nil, fmt.Errorf("simtorch: conv2d %v with kernel %v", si, sk)
		}
		_, vs, err := tensorsOf(ctx, args, 2)
		if err != nil {
			return nil, err
		}
		vi, vk := vs[0], vs[1]
		ctx.Charge(in.Size(), float64(sk[0]*sk[1]))
		ctx.EmitMemOp()
		oh, ow := si[0]-sk[0]+1, si[1]-sk[1]+1
		out := make([]float64, oh*ow)
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				s := 0.0
				for ky := 0; ky < sk[0]; ky++ {
					for kx := 0; kx < sk[1]; kx++ {
						s += vi[(y+ky)*si[1]+x+kx] * vk[ky*sk[1]+kx]
					}
				}
				out[y*ow+x] = s
			}
		}
		return refOut(ctx, []int{oh, ow}, out)
	}
}

func refPool(fw, name string, avg, exploit bool) func(*framework.API) framework.Impl {
	return func(api *framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			in, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			si := in.Shape()
			if len(si) != 2 || si[0] < 2 || si[1] < 2 {
				return nil, fmt.Errorf("%s: %s input %v", fw, name, si)
			}
			vi, err := in.Values()
			if err != nil {
				return nil, err
			}
			if exploit {
				if fired, err := exploitOnTensor(ctx, api, vi); fired {
					return nil, err
				}
			}
			ctx.Charge(in.Size(), 4)
			ctx.EmitMemOp()
			oh, ow := si[0]/2, si[1]/2
			out := make([]float64, oh*ow)
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					a := vi[(2*y)*si[1]+2*x]
					b := vi[(2*y)*si[1]+2*x+1]
					c := vi[(2*y+1)*si[1]+2*x]
					d := vi[(2*y+1)*si[1]+2*x+1]
					if avg {
						out[y*ow+x] = (a + b + c + d) / 4
					} else {
						out[y*ow+x] = math.Max(math.Max(a, b), math.Max(c, d))
					}
				}
			}
			return refOut(ctx, []int{oh, ow}, out)
		}
	}
}

func refSoftmax(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		ts, vs, err := tensorsOf(ctx, args, 1)
		if err != nil {
			return nil, err
		}
		ctx.Charge(ts[0].Size(), 2)
		ctx.EmitMemOp()
		maxV := math.Inf(-1)
		for _, v := range vs[0] {
			maxV = math.Max(maxV, v)
		}
		sum := 0.0
		out := make([]float64, len(vs[0]))
		for i, v := range vs[0] {
			out[i] = math.Exp(v - maxV)
			sum += out[i]
		}
		for i := range out {
			out[i] /= sum
		}
		return refOut(ctx, ts[0].Shape(), out)
	}
}

// refReduce reduces one tensor to a scalar; argmax's comes back as an int.
func refReduce(intensity float64, f func([]float64) float64) func(*framework.API) framework.Impl {
	return func(api *framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			ts, vs, err := tensorsOf(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			ctx.Charge(ts[0].Size(), intensity)
			ctx.EmitMemOp()
			if strings.HasSuffix(api.Name, "argmax") {
				return []framework.Value{framework.Int64(int64(f(vs[0])))}, nil
			}
			return []framework.Value{framework.Float64(f(vs[0]))}, nil
		}
	}
}

// refCopy copies one tensor into a new one: flattened when errFmt is
// empty, else reshaped to args[1]×args[2], refused with errFmt when the
// element counts differ.
func refCopy(errFmt string) func(*framework.API) framework.Impl {
	return func(*framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			shape := []int{t.Len()}
			if errFmt != "" {
				rows, cols := int(args[1].Int), int(args[2].Int)
				if rows*cols != t.Len() {
					return nil, fmt.Errorf(errFmt, t.Len(), rows, cols)
				}
				shape = []int{rows, cols}
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			return refOut(ctx, shape, vals)
		}
	}
}

func refCombinations(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		ts, vs, err := tensorsOf(ctx, args, 1)
		if err != nil {
			return nil, err
		}
		vals := vs[0]
		n := len(vals)
		if n < 2 {
			return nil, fmt.Errorf("simtorch: combinations needs >=2 elements")
		}
		if n > 64 {
			n = 64
		}
		ctx.Charge(ts[0].Size(), 2)
		ctx.EmitMemOp()
		var out []float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, vals[i], vals[j])
			}
		}
		return refOut(ctx, []int{len(out) / 2, 2}, out)
	}
}

func refDataLoader(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		t, err := ctx.Tensor(args[0])
		if err != nil {
			return nil, err
		}
		batch := 16
		if args[1].Int > 0 {
			batch = int(args[1].Int)
		}
		sh := t.Shape()
		if len(sh) != 2 {
			return nil, fmt.Errorf("simtorch: DataLoader wants NxD dataset, got %v", sh)
		}
		batch = min(batch, sh[0])
		vals, err := t.Values()
		if err != nil {
			return nil, err
		}
		ctx.Charge(t.Size(), 1)
		ctx.EmitMemOp()
		return refOut(ctx, []int{batch, sh[1]}, vals[:batch*sh[1]])
	}
}

// refSGD steps w against g in place: w -= lr*g, with lr from args[2] when
// takesLR and it is positive.
func refSGD(mismatch string, intensity, lr float64, takesLR bool) func(*framework.API) framework.Impl {
	return func(*framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			w, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			g, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			if w.Len() != g.Len() {
				return nil, fmt.Errorf("%s", mismatch)
			}
			lr := lr
			if takesLR && args[2].Float > 0 {
				lr = args[2].Float
			}
			_, vs, err := tensorsOf(ctx, args, 2)
			if err != nil {
				return nil, err
			}
			vw, vg := vs[0], vs[1]
			ctx.Charge(w.Size(), intensity)
			ctx.EmitMemOp()
			for i := range vw {
				vw[i] -= lr * vg[i]
			}
			if err := w.SetValues(vw); err != nil {
				return nil, err
			}
			return []framework.Value{args[0]}, nil
		}
	}
}

// encodeFloats encodes vals as big-endian float64s.
func encodeFloats(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func refTorchSave(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		ts, vs, err := tensorsOf(ctx, args, 1)
		if err != nil {
			return nil, err
		}
		ctx.Charge(ts[0].Size(), 1)
		model := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32([]byte("PTM1"), 1), uint32(len(vs[0])))
		return nil, ctx.FileWrite(args[1].Str, encodeFloats(model, vs[0]))
	}
}

func refSaveDataset(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		ts, vs, err := tensorsOf(ctx, args, 1)
		if err != nil {
			return nil, err
		}
		ctx.Charge(ts[0].Size(), 1)
		return nil, ctx.FileWrite(args[1].Str, encodeFloats(nil, vs[0]))
	}
}

// decodeFloats decodes big-endian float64s.
func decodeFloats(raw []byte) []float64 {
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[i*8:]))
	}
	return vals
}

func refMNIST(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		raw, err := ctx.FileRead(args[0].Str + "/mnist.bin")
		if err != nil {
			return nil, err
		}
		n := len(raw) / 8
		if n == 0 || n%64 != 0 {
			return nil, fmt.Errorf("simtorch: bad mnist file (%d values)", n)
		}
		vals := decodeFloats(raw)
		ctx.Charge(len(raw), 1)
		return refOut(ctx, []int{n / 64, 64}, vals)
	}
}

func refConv3d(api *framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		in, err := ctx.Tensor(args[0])
		if err != nil {
			return nil, err
		}
		si := in.Shape()
		if len(si) != 3 || si[0] < 3 || si[1] < 3 || si[2] < 3 {
			return nil, fmt.Errorf("simflow: conv3d input %v", si)
		}
		vi, err := in.Values()
		if err != nil {
			return nil, err
		}
		if fired, err := exploitOnTensor(ctx, api, vi); fired {
			return nil, err
		}
		ctx.Charge(in.Size(), 27)
		ctx.EmitMemOp()
		d, h, w := si[0], si[1], si[2]
		od, oh, ow := d-2, h-2, w-2
		out := make([]float64, od*oh*ow)
		for z := 0; z < od; z++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					s := 0.0
					for dz := 0; dz < 3; dz++ {
						for dy := 0; dy < 3; dy++ {
							for dx := 0; dx < 3; dx++ {
								s += vi[(z+dz)*h*w+(y+dy)*w+x+dx]
							}
						}
					}
					out[z*oh*ow+y*ow+x] = s / 27
				}
			}
		}
		return refOut(ctx, []int{od, oh, ow}, out)
	}
}

func refOneHot(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		idx, depth := int(args[0].Int), int(args[1].Int)
		if depth <= 0 || idx < 0 || idx >= depth {
			return nil, fmt.Errorf("simflow: one_hot(%d, %d)", idx, depth)
		}
		vals := make([]float64, depth)
		vals[idx] = 1
		ctx.EmitMemOp()
		return refOut(ctx, []int{depth}, vals)
	}
}

func refResize(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		in, err := ctx.Tensor(args[0])
		if err != nil {
			return nil, err
		}
		nh, nw := int(args[1].Int), int(args[2].Int)
		si := in.Shape()
		if len(si) != 2 || nh <= 0 || nw <= 0 {
			return nil, fmt.Errorf("simflow: resize %v to %dx%d", si, nh, nw)
		}
		vi, err := in.Values()
		if err != nil {
			return nil, err
		}
		ctx.Charge(in.Size(), 2)
		ctx.EmitMemOp()
		out := make([]float64, nh*nw)
		for y := 0; y < nh; y++ {
			for x := 0; x < nw; x++ {
				out[y*nw+x] = vi[(y*si[0]/nh)*si[1]+x*si[1]/nw]
			}
		}
		return refOut(ctx, []int{nh, nw}, out)
	}
}

func refTrain(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		st, err := ctx.Tensor(args[0])
		if err != nil {
			return nil, err
		}
		data, err := ctx.Tensor(args[1])
		if err != nil {
			return nil, err
		}
		if st.Len() < 2 {
			return nil, fmt.Errorf("simflow: train state needs [steps, loss]")
		}
		vals, err := data.Values()
		if err != nil {
			return nil, err
		}
		ctx.Charge(data.Size(), 12)
		ctx.EmitMemOp()
		loss := 0.0
		for _, v := range vals {
			loss += v * v
		}
		loss = math.Sqrt(loss) / float64(len(vals))
		steps, err := st.AtFlat(0)
		if err != nil {
			return nil, err
		}
		prev, err := st.AtFlat(1)
		if err != nil {
			return nil, err
		}
		_ = st.SetFlat(0, steps+1)
		_ = st.SetFlat(1, 0.9*prev+0.1*loss)
		return []framework.Value{framework.Float64(loss)}, nil
	}
}

func refDatasetDir(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		paths := ctx.K.FS.List(args[0].Str)
		if len(paths) == 0 {
			return nil, fmt.Errorf("simflow: empty dataset dir %s", args[0].Str)
		}
		var all []float64
		for _, p := range paths {
			raw, err := ctx.FileRead(p)
			if err != nil {
				return nil, err
			}
			if len(raw) == 0 || len(raw)%8 != 0 {
				return nil, fmt.Errorf("simflow: dataset length %d not a float64 multiple", len(raw))
			}
			all = append(all, decodeFloats(raw)...)
		}
		ctx.Charge(len(all)*8, 1)
		return refOut(ctx, []int{len(all)}, all)
	}
}

func refCaffeNet(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		proto, err := ctx.Blob(args[0])
		if err != nil {
			return nil, err
		}
		raw, err := proto.Bytes()
		if err != nil {
			return nil, err
		}
		_, sizes, err := simcaffe.ParsePrototxt(string(raw))
		if err != nil {
			return nil, err
		}
		var vals []float64
		for li, s := range sizes {
			for range s {
				vals = append(vals, 0.1*float64(li+1))
			}
		}
		ctx.EmitMemOp()
		return refOut(ctx, []int{len(vals)}, vals)
	}
}

func refCaffeForward(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		ts, vs, err := tensorsOf(ctx, args, 2)
		if err != nil {
			return nil, err
		}
		vw, vi := vs[0], vs[1]
		ctx.Charge(ts[0].Size()+ts[1].Size(), 10)
		ctx.EmitMemOp()
		n := len(vi)
		outs := max(len(vw)/n, 1)
		out := make([]float64, outs)
		for o := 0; o < outs; o++ {
			s := 0.0
			for j := 0; j < n && o*n+j < len(vw); j++ {
				s += vw[o*n+j] * vi[j]
			}
			out[o] = math.Max(0, s)
		}
		return refOut(ctx, []int{outs}, out)
	}
}

func refCopyTrained(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		dst, err := ctx.Tensor(args[0])
		if err != nil {
			return nil, err
		}
		src, err := ctx.Blob(args[1])
		if err != nil {
			return nil, err
		}
		raw, err := src.Bytes()
		if err != nil {
			return nil, err
		}
		if len(raw)%8 != 0 {
			return nil, fmt.Errorf("simcaffe: weight blob %d bytes", len(raw))
		}
		n := min(len(raw)/8, dst.Len())
		vals, err := dst.Values()
		if err != nil {
			return nil, err
		}
		copy(vals, decodeFloats(raw[:8*n]))
		ctx.Charge(len(raw), 1)
		ctx.EmitMemOp()
		if err := dst.SetValues(vals); err != nil {
			return nil, err
		}
		return []framework.Value{args[0]}, nil
	}
}

// stripTrojan is simtorch's: a model file cut where an embedded trigger
// starts.
func stripTrojan(raw []byte) []byte {
	if i := bytes.Index(raw, []byte("!!CVE:")); i >= 0 {
		return raw[:i]
	}
	return raw
}

func refTorchLoad(api *framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("simtorch: load needs a path")
		}
		raw, err := ctx.FileRead(args[0].Str)
		if err != nil {
			return nil, err
		}
		if fired, err := ctx.MaybeExploit(api, raw); fired {
			return nil, err
		}
		if _, err := simtorch.DecodeModel(stripTrojan(raw)); err != nil {
			return nil, err
		}
		id, _, err := ctx.NewBlob(raw)
		if err != nil {
			return nil, err
		}
		return []framework.Value{framework.Obj(id)}, nil
	}
}

func refHubLoad(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("simtorch: hub.load needs a model name")
		}
		host := "hub.pytorch.org"
		if err := ctx.K.NetConnect(ctx.P, host); err != nil {
			return nil, err
		}
		data, ok, err := ctx.NetDownload(host)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("simtorch: hub has no model %q queued", args[0].Str)
		}
		cache := "/cache/hub/" + args[0].Str
		if err := ctx.FileWrite(cache, data); err != nil {
			return nil, err
		}
		raw, err := ctx.FileRead(cache)
		if err != nil {
			return nil, err
		}
		id, _, err := ctx.NewBlob(raw)
		if err != nil {
			return nil, err
		}
		return []framework.Value{framework.Obj(id)}, nil
	}
}

func refSummaryWriter(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("simtorch: SummaryWriter needs (dir, scalar)")
		}
		line := fmt.Sprintf("scalar %g\n", args[1].Float)
		return nil, ctx.FileAppend(args[0].Str+"/events.log", []byte(line))
	}
}

func refReadFile(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("simflow: read_file needs a path")
		}
		raw, err := ctx.FileRead(args[0].Str)
		if err != nil {
			return nil, err
		}
		id, _, err := ctx.NewBlob(raw)
		if err != nil {
			return nil, err
		}
		return []framework.Value{framework.Obj(id)}, nil
	}
}

func refGetFile(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("simflow: get_file needs a name")
		}
		host := "storage.googleapis.com"
		if err := ctx.K.NetConnect(ctx.P, host); err != nil {
			return nil, err
		}
		data, ok, err := ctx.NetDownload(host)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("simflow: no download queued for %q", args[0].Str)
		}
		tmp := "/tmp/" + args[0].Str
		if err := ctx.FileWrite(tmp, data); err != nil {
			return nil, err
		}
		raw, err := ctx.FileRead(tmp)
		if err != nil {
			return nil, err
		}
		id, _, err := ctx.NewBlob(raw)
		if err != nil {
			return nil, err
		}
		return []framework.Value{framework.Obj(id), framework.Str(tmp)}, nil
	}
}

func refDumpDebugInfo(*framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		dir := "/tmp/tfdbg"
		if len(args) > 0 && args[0].Str != "" {
			dir = args[0].Str
		}
		return nil, ctx.FileAppend(dir+"/dump.log", []byte("debug dump enabled\n"))
	}
}

func refReadProto(name string, binaryFile bool) func(*framework.API) framework.Impl {
	return func(api *framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 1 {
				return nil, fmt.Errorf("simcaffe: %s needs a path", name)
			}
			raw, err := ctx.FileRead(args[0].Str)
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(api, raw); fired {
				return nil, err
			}
			if !binaryFile {
				if _, _, err := simcaffe.ParsePrototxt(string(raw)); err != nil {
					return nil, err
				}
			}
			id, _, err := ctx.NewBlob(raw)
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Obj(id)}, nil
		}
	}
}

// kernelRun is what one kernel call left behind.
type kernelRun struct {
	err                              string
	out                              []string // each result, objects as their header and payload
	args                             []string // each object argument's payload after the call
	virt                             vclock.Duration
	stores, bytesStored, bytesLoaded uint64
	alive                            bool
	files                            []string // each file after the call, as its path and bytes
}

// render describes a value bit-exactly: an object as its header and
// payload bytes, a float as its bits, except that every NaN, a tensor's
// elements included, reads as one NaN. Which operand's NaN an arithmetic
// instruction passes on is the compiler's choice of operand order, which
// IEEE 754 leaves open, so two builds of one sum may differ there.
func render(t *testing.T, ctx *framework.Ctx, v framework.Value) string {
	t.Helper()
	if v.Kind != framework.ValObj {
		return fmt.Sprintf("%d/%d/%x/%q/%t", v.Kind, v.Int, floatBits(v.Float), v.Str, v.Bool)
	}
	o, err := ctx.Obj(v)
	if err != nil {
		t.Fatal(err)
	}
	b := payload(t, ctx, v)
	if o.Kind() == object.KindTensor {
		for i := 0; i+8 <= len(b); i += 8 {
			binary.BigEndian.PutUint64(b[i:], floatBits(math.Float64frombits(binary.BigEndian.Uint64(b[i:]))))
		}
	}
	return fmt.Sprintf("%x:%x", o.Header(), b)
}

// floatBits returns v's bits, or one NaN's for any NaN.
func floatBits(v float64) uint64 {
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// runKernel runs impl as api on a fresh process whose arguments args
// builds, and measures virtual time and memory counters from after that
// set-up.
func runKernel(t *testing.T, api *framework.API, impl framework.Impl, args func(*operands) []framework.Value, o operands) kernelRun {
	k := kernel.New()
	o.t, o.ctx = t, framework.NewCtx(k, k.Spawn("kernel"))
	in := args(&o)
	call := *api
	call.Impl = impl
	space := o.ctx.P.Space()
	v0, s0 := k.Clock.Now(), space.Stats()
	out, err := call.Exec(o.ctx, in)
	s1 := space.Stats()
	run := kernelRun{
		virt:        k.Clock.Now() - v0,
		stores:      s1.Stores - s0.Stores,
		bytesStored: s1.BytesStored - s0.BytesStored,
		bytesLoaded: s1.BytesLoaded - s0.BytesLoaded,
		alive:       o.ctx.P.Alive(),
	}
	if err != nil {
		run.err = err.Error()
	}
	for _, v := range out {
		run.out = append(run.out, render(t, o.ctx, v))
	}
	for _, v := range in {
		if v.Kind == framework.ValObj {
			run.args = append(run.args, render(t, o.ctx, v))
		}
	}
	for _, p := range k.FS.List("") {
		b, _ := k.FS.ReadFile(p)
		run.files = append(run.files, fmt.Sprintf("%s:%x", p, b))
	}
	return run
}

// FuzzTensorKernels: for any shapes and values, and any file or download
// the loaders read, each API of simtorch, simflow and simcaffe that is a
// row of kernelCases gives the bit-identical outputs of its reference (any
// NaN matching any NaN, see render), or the same error, and leaves its
// arguments and every file the same: with the same virtual time charged
// and the same stores, bytes stored and bytes loaded. Loads are not
// compared: a view is one load of its operand where Values made one per
// page.
func FuzzTensorKernels(f *testing.F) {
	var vals []byte
	for _, v := range []float64{1.5, -2.25, 3, 0.5, -7, 11, 0, 2} {
		vals = binary.BigEndian.AppendUint64(vals, math.Float64bits(v))
	}
	for i := range kernelCases {
		f.Add(uint8(i), []byte{1, 2, 3, 4, 5, 6, 7, 8}, vals[:40])
		f.Add(uint8(i), []byte{2, 1, 1, 3, 2, 2, 4, 1, 3}, vals)
		f.Add(uint8(i), []byte{7, 0, 3, 1, 2, 9, 4, 11, 5}, []byte{})
	}
	// A crafted tensor for simflow's exploit checks: the trigger's bytes,
	// one per element.
	trigger := framework.Trigger("CVE-2021-41198", []byte("dos"))
	var crafted []byte
	for _, b := range trigger {
		crafted = binary.BigEndian.AppendUint64(crafted, math.Float64bits(float64(b)))
	}
	row := func(api string) uint8 {
		return uint8(slices.IndexFunc(kernelCases, func(c kernelCase) bool { return c.api == api }))
	}
	f.Add(row("tf.matmul"), []byte{5, 5, 5, 0}, crafted)
	// The loaders' files and downloads: a model, a trojaned model, whose
	// trigger hides after its weights, and a prototxt and a malformed one.
	model := simtorch.EncodeModel([][]float64{{1, 0, 0, 1}, {0.5, -2}})
	trojan := append(slices.Clip(model), framework.Trigger(simtorch.CVEStegoNet, []byte("payload"))...)
	f.Add(row("torch.load"), []byte{0}, model)
	f.Add(row("torch.load"), []byte{0}, trojan)
	f.Add(row("torch.hub.load"), []byte{0}, model)
	f.Add(row("caffe.ReadProtoFromTextFile"), []byte{0}, []byte("conv1 4\nfc 2\n"))
	f.Add(row("caffe.ReadProtoFromTextFile"), []byte{0}, []byte("conv1 4\nfc two\n"))
	reg := all.Registry()
	f.Fuzz(func(t *testing.T, which uint8, shape, vals []byte) {
		c := kernelCases[int(which)%len(kernelCases)]
		api := reg.MustGet(c.api)
		in := operands{shape: shape, vals: vals[:min(len(vals), 8*64)]}
		got := runKernel(t, api, api.Impl, c.args, in)
		want := runKernel(t, api, c.ref(api), c.args, in)
		if got.err != want.err || !slices.Equal(got.out, want.out) || !slices.Equal(got.args, want.args) ||
			!slices.Equal(got.files, want.files) || got.virt != want.virt || got.stores != want.stores ||
			got.bytesStored != want.bytesStored || got.bytesLoaded != want.bytesLoaded || got.alive != want.alive {
			t.Fatalf("%s:\n kernel    %+v\n reference %+v", c.api, got, want)
		}
	})
}

// TestTensorViewKernelsLeaveInputsUnchanged runs every kernel of
// kernelCases that reads a tensor through a view, torch.Module.forward and
// the simcv kernels that read tensors, on operands of more than a page,
// whose views are the regions' own slabs, and requires each call to
// succeed and leave every input region's bytes as they were: a kernel that
// wrote its view would write the region itself. An in-place kernel's first
// argument is its output and is not checked.
func TestTensorViewKernelsLeaveInputsUnchanged(t *testing.T) {
	reg := all.Registry()
	cases := slices.Clone(kernelCases)
	cases = append(cases,
		kernelCase{api: "torch.Module.forward", args: func(o *operands) []framework.Value {
			// 600 inputs, a hidden layer of 2 and an output layer of 2.
			model := binary.BigEndian.AppendUint32([]byte("PTM1"), 2)
			for _, n := range []int{1200, 4} {
				model = binary.BigEndian.AppendUint32(model, uint32(n))
				for i := range n {
					model = binary.BigEndian.AppendUint64(model, math.Float64bits(float64(i%7)-3))
				}
			}
			return []framework.Value{o.blob(model), o.tensor(600)}
		}},
		kernelCase{api: "cv.compareHist", args: func(o *operands) []framework.Value {
			return []framework.Value{o.tensor(600), o.tensor(600)}
		}},
		kernelCase{api: "cv.BFMatcher.match", args: func(o *operands) []framework.Value {
			return []framework.Value{o.tensor(24, 24), o.tensor(24, 24)}
		}},
		kernelCase{api: "cv.remap", args: func(o *operands) []framework.Value {
			id, _, err := o.ctx.NewMat(24, 24, 1)
			if err != nil {
				o.t.Fatal(err)
			}
			return []framework.Value{framework.Obj(id), o.tensor(24, 24, 2)}
		}},
		kernelCase{api: "cv.writeOpticalFlow", args: func(o *operands) []framework.Value {
			return []framework.Value{framework.Str(outPath), o.tensor(24, 24, 2)}
		}},
		kernelCase{api: "cv.drawContours", inPlace: true, args: func(o *operands) []framework.Value {
			id, _, err := o.ctx.NewMat(72, 72, 1)
			if err != nil {
				o.t.Fatal(err)
			}
			return []framework.Value{framework.Obj(id), o.tensor(120, 5)}
		}},
	)
	for _, c := range cases {
		k := kernel.New()
		o := operands{t: t, ctx: framework.NewCtx(k, k.Spawn("kernel")), big: true}
		args := c.args(&o)
		// The inputs the kernel only reads, and whether one is a tensor.
		readOnly := func(i int) bool { return args[i].Kind == framework.ValObj && (i > 0 || !c.inPlace) }
		viewed := false
		for i, v := range args {
			if ten, err := o.ctx.Tensor(v); err == nil && readOnly(i) {
				if ten.Size() <= mem.PageSize {
					t.Fatalf("%s: input %d holds %d bytes, not more than a page", c.api, i, ten.Size())
				}
				viewed = true
			}
		}
		if !viewed {
			continue // it reads no tensor: torch.tensor, the loaders and caffe.Net
		}
		t.Run(c.api, func(t *testing.T) {
			o.t = t
			var want [][]byte
			for i := range args {
				if readOnly(i) {
					want = append(want, payload(t, o.ctx, args[i]))
				}
			}
			if _, err := reg.MustGet(c.api).Exec(o.ctx, args); err != nil {
				t.Fatal(err)
			}
			for i := range args {
				if readOnly(i) {
					if !bytes.Equal(payload(t, o.ctx, args[i]), want[0]) {
						t.Fatalf("changed the bytes of its input %d", i)
					}
					want = want[1:]
				}
			}
		})
	}
}

// payload returns a copy of an object argument's payload.
func payload(t *testing.T, ctx *framework.Ctx, v framework.Value) []byte {
	t.Helper()
	obj, err := ctx.Obj(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := object.PayloadBytes(obj)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
