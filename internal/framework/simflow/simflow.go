// Package simflow is a miniature TensorFlow: dataset/file ingestion
// (including the memory-copy-via-file pattern of §4.2.1), tensor ops and
// pooling/convolution kernels carrying the paper's four TensorFlow CVEs
// (Table 5), a stateful estimator with checkpointable training state
// (§A.2.4), and model persistence.
package simflow

import (
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// Name is the framework identifier.
const Name = "simflow"

// TensorFlow CVEs used in the evaluation (Table 5), placed at data
// processing APIs as the paper categorizes them.
const (
	CVEConv3dDoS  = "CVE-2021-29513" // DoS (tf.nn.conv3d)
	CVEAvgPoolDoS = "CVE-2021-29618" // DoS (tf.nn.avg_pool)
	CVEMaxPoolDoS = "CVE-2021-37661" // DoS (tf.nn.max_pool)
	CVEMatmulDoS  = "CVE-2021-41198" // DoS (tf.matmul)
)

func dpOps() []framework.Op {
	return []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageMem)}
}

func tensorArg(ctx *framework.Ctx, args []framework.Value, i int) (*object.Tensor, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("simflow: missing tensor argument %d", i)
	}
	return ctx.Tensor(args[i])
}

// fillOut allocates a result tensor of the given shape and encodes each
// element i as f(i) straight into it (object.Tensor.Fill).
func fillOut(ctx *framework.Ctx, shape []int, f func(i int) float64) (framework.Value, error) {
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return framework.Nil(), err
	}
	if err := t.Fill(f); err != nil {
		return framework.Nil(), err
	}
	return framework.Obj(id), nil
}

// EncodeDataset serializes float64 samples for image_dataset_from_directory
// and estimator training.
func EncodeDataset(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// checkDataset checks a dataset file's framing: a whole, nonzero number of
// float64s, which decode where they lie.
func checkDataset(b []byte) error {
	if len(b) == 0 || len(b)%8 != 0 {
		return fmt.Errorf("simflow: dataset length %d not a float64 multiple", len(b))
	}
	return nil
}

// Registry builds the simflow API registry.
func Registry() *framework.Registry {
	r := framework.NewRegistry()

	// ---- Data loading ------------------------------------------------------

	r.Register(&framework.API{
		Name: "tf.keras.utils.get_file", Framework: Name, TrueType: framework.TypeLoading,
		// The paper's worked §4.2.1 example: download → stash in a temp
		// file → read back. Static ops expose the full chain; the analyzer
		// must reduce the FILE round trip away.
		StaticOps: []framework.Op{
			framework.WriteOp(framework.StorageMem, framework.StorageDev),
			framework.WriteOp(framework.StorageFile, framework.StorageMem),
			framework.WriteOp(framework.StorageMem, framework.StorageFile),
		},
		Syscalls: []kernel.Sysno{kernel.SysSocket, kernel.SysConnect, kernel.SysRecvfrom, kernel.SysOpenat, kernel.SysWrite, kernel.SysRead, kernel.SysClose},
		FDLabels: map[kernel.Sysno][]string{kernel.SysConnect: {"storage.googleapis.com"}},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
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
		},
	})

	r.Register(&framework.API{
		Name: "tf.keras.preprocessing.image_dataset_from_directory", Framework: Name,
		TrueType:  framework.TypeLoading,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose, kernel.SysGetcwd, kernel.SysLstat},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 1 {
				return nil, fmt.Errorf("simflow: image_dataset_from_directory needs a dir")
			}
			paths := ctx.K.FS.List(args[0].Str)
			if len(paths) == 0 {
				return nil, fmt.Errorf("simflow: empty dataset dir %s", args[0].Str)
			}
			// The files' samples are encoded into the result one after
			// another, each read where the file holds it.
			raws := make([][]byte, 0, len(paths))
			n := 0
			for _, p := range paths {
				raw, err := ctx.FileRead(p)
				if err != nil {
					return nil, err
				}
				if err := checkDataset(raw); err != nil {
					return nil, err
				}
				raws = append(raws, raw)
				n += len(raw)
			}
			ctx.Charge(n, 1)
			v, err := fillOut(ctx, []int{n / 8}, func(int) float64 {
				if len(raws[0]) == 0 {
					raws = raws[1:]
				}
				x := math.Float64frombits(binary.BigEndian.Uint64(raws[0]))
				raws[0] = raws[0][8:]
				return x
			})
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "tf.io.read_file", Framework: Name, TrueType: framework.TypeLoading,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
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
		},
	})

	// ---- Data processing ---------------------------------------------------

	conv3d := &framework.API{
		Name: "tf.nn.conv3d", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 27,
		CVEs: []string{CVEConv3dDoS},
		Impl: nil, // set below (needs self-reference for MaybeExploit)
	}
	conv3d.Impl = func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		in, err := tensorArg(ctx, args, 0)
		if err != nil {
			return nil, err
		}
		si := in.Shape()
		if len(si) != 3 || si[0] < 3 || si[1] < 3 || si[2] < 3 {
			return nil, fmt.Errorf("simflow: conv3d input %v", si)
		}
		vi, err := in.View()
		if err != nil {
			return nil, err
		}
		if fired, err := exploitOnTensor(ctx, conv3d, vi); fired {
			return nil, err
		}
		ctx.Charge(in.Size(), 27)
		ctx.EmitMemOp()
		h, w := si[1], si[2]
		oh, ow := h-2, w-2
		v, err := fillOut(ctx, []int{si[0] - 2, oh, ow}, func(o int) float64 {
			z, y, x := o/(oh*ow), o/ow%oh, o%ow
			s := 0.0
			for dz := 0; dz < 3; dz++ {
				for dy := 0; dy < 3; dy++ {
					for dx := 0; dx < 3; dx++ {
						s += vi.At((z+dz)*h*w + (y+dy)*w + x + dx)
					}
				}
			}
			return s / 27
		})
		if err != nil {
			return nil, err
		}
		return []framework.Value{v}, nil
	}
	r.Register(conv3d)

	pool := func(name, cve string, avg bool) *framework.API {
		var api *framework.API
		api = &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 4,
			CVEs: []string{cve},
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				in, err := tensorArg(ctx, args, 0)
				if err != nil {
					return nil, err
				}
				si := in.Shape()
				if len(si) != 2 || si[0] < 2 || si[1] < 2 {
					return nil, fmt.Errorf("simflow: %s input %v", name, si)
				}
				vi, err := in.View()
				if err != nil {
					return nil, err
				}
				if fired, err := exploitOnTensor(ctx, api, vi); fired {
					return nil, err
				}
				ctx.Charge(in.Size(), 4)
				ctx.EmitMemOp()
				ow := si[1] / 2
				v, err := fillOut(ctx, []int{si[0] / 2, ow}, func(o int) float64 {
					y, x := o/ow, o%ow
					a := vi.At((2*y)*si[1] + 2*x)
					b := vi.At((2*y)*si[1] + 2*x + 1)
					c := vi.At((2*y+1)*si[1] + 2*x)
					d := vi.At((2*y+1)*si[1] + 2*x + 1)
					if avg {
						return (a + b + c + d) / 4
					}
					return math.Max(math.Max(a, b), math.Max(c, d))
				})
				if err != nil {
					return nil, err
				}
				return []framework.Value{v}, nil
			},
		}
		return api
	}
	r.Register(pool("tf.nn.avg_pool", CVEAvgPoolDoS, true))
	r.Register(pool("tf.nn.max_pool", CVEMaxPoolDoS, false))

	matmul := &framework.API{
		Name: "tf.matmul", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 8,
		CVEs: []string{CVEMatmulDoS},
	}
	matmul.Impl = func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		a, err := tensorArg(ctx, args, 0)
		if err != nil {
			return nil, err
		}
		b, err := tensorArg(ctx, args, 1)
		if err != nil {
			return nil, err
		}
		sa, sb := a.Shape(), b.Shape()
		if len(sa) != 2 || len(sb) != 2 || sa[1] != sb[0] {
			return nil, fmt.Errorf("simflow: matmul %v x %v", sa, sb)
		}
		va, err := a.View()
		if err != nil {
			return nil, err
		}
		if fired, err := exploitOnTensor(ctx, matmul, va); fired {
			return nil, err
		}
		vb, err := b.View()
		if err != nil {
			return nil, err
		}
		ctx.Charge(a.Size()+b.Size(), float64(sa[1]))
		ctx.EmitMemOp()
		k, n := sa[1], sb[1]
		v, err := fillOut(ctx, []int{sa[0], n}, func(o int) float64 {
			i, j := o/n, o%n
			s := 0.0
			for x := 0; x < k; x++ {
				s += va.At(i*k+x) * vb.At(x*n+j)
			}
			return s
		})
		if err != nil {
			return nil, err
		}
		return []framework.Value{v}, nil
	}
	r.Register(matmul)

	ew := func(name string, f func(float64) float64) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				t, err := tensorArg(ctx, args, 0)
				if err != nil {
					return nil, err
				}
				vals, err := t.View()
				if err != nil {
					return nil, err
				}
				ctx.Charge(t.Size(), 1)
				ctx.EmitMemOp()
				res, err := fillOut(ctx, t.Shape(), func(i int) float64 { return f(vals.At(i)) })
				if err != nil {
					return nil, err
				}
				return []framework.Value{res}, nil
			},
		}
	}
	r.Register(ew("tf.nn.relu", func(v float64) float64 { return math.Max(0, v) }))
	r.Register(ew("tf.nn.softplus", func(v float64) float64 { return math.Log1p(math.Exp(v)) }))
	r.Register(ew("tf.cast", func(v float64) float64 { return math.Trunc(v) }))
	r.Register(ew("tf.square", func(v float64) float64 { return v * v }))

	r.Register(&framework.API{
		Name: "tf.reduce_mean", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			ctx.EmitMemOp()
			s := 0.0
			for i := range vals.Len() {
				s += vals.At(i)
			}
			return []framework.Value{framework.Float64(s / float64(vals.Len()))}, nil
		},
	})

	r.Register(&framework.API{
		Name: "tf.argmax", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			ctx.EmitMemOp()
			best := 0
			for i := range vals.Len() {
				if vals.At(i) > vals.At(best) {
					best = i
				}
			}
			return []framework.Value{framework.Int64(int64(best))}, nil
		},
	})

	r.Register(&framework.API{
		Name: "tf.one_hot", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("simflow: one_hot needs (index, depth)")
			}
			idx, depth := int(args[0].Int), int(args[1].Int)
			if depth <= 0 || idx < 0 || idx >= depth {
				return nil, fmt.Errorf("simflow: one_hot(%d, %d)", idx, depth)
			}
			ctx.EmitMemOp()
			v, err := fillOut(ctx, []int{depth}, func(i int) float64 {
				if i == idx {
					return 1
				}
				return 0
			})
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	// tf.image.resize works on tensors shaped HxW.
	r.Register(&framework.API{
		Name: "tf.image.resize", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			in, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			if len(args) < 3 {
				return nil, fmt.Errorf("simflow: resize needs (tensor, h, w)")
			}
			nh, nw := int(args[1].Int), int(args[2].Int)
			si := in.Shape()
			if len(si) != 2 || nh <= 0 || nw <= 0 {
				return nil, fmt.Errorf("simflow: resize %v to %dx%d", si, nh, nw)
			}
			vi, err := in.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(in.Size(), 2)
			ctx.EmitMemOp()
			v, err := fillOut(ctx, []int{nh, nw}, func(o int) float64 {
				y, x := o/nw, o%nw
				return vi.At((y*si[0]/nh)*si[1] + x*si[1]/nw)
			})
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	// DNNClassifier.train is the stateful API of §A.2.4: it accumulates
	// training state in a caller-held state tensor [steps, loss].
	r.Register(&framework.API{
		Name: "tf.estimator.DNNClassifier.train", Framework: Name,
		TrueType: framework.TypeProcessing, Stateful: true, SharedState: true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex, kernel.SysGetrandom}, Intensity: 12,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			st, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			data, err := tensorArg(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			if st.Len() < 2 {
				return nil, fmt.Errorf("simflow: train state needs [steps, loss]")
			}
			vals, err := data.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(data.Size(), 12)
			ctx.EmitMemOp()
			loss := 0.0
			for i := range vals.Len() {
				loss += vals.At(i) * vals.At(i)
			}
			loss = math.Sqrt(loss) / float64(vals.Len())
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
		},
	})

	// enable_dump_debug_info reads profiling state other APIs write — the
	// shared-state debugging API discussed in §A.6.
	r.Register(&framework.API{
		Name: "tf.debugging.experimental.enable_dump_debug_info", Framework: Name,
		TrueType: framework.TypeProcessing, Stateful: true, SharedState: true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysOpenat, kernel.SysWrite, kernel.SysClose}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			dir := "/tmp/tfdbg"
			if len(args) > 0 && args[0].Str != "" {
				dir = args[0].Str
			}
			return nil, ctx.FileAppend(dir+"/dump.log", []byte("debug dump enabled\n"))
		},
	})

	// ---- Storing ------------------------------------------------------------

	r.Register(&framework.API{
		Name: "tf.keras.Model.save_weights", Framework: Name, TrueType: framework.TypeStoring,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysMkdir, kernel.SysAccess},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("simflow: save_weights needs (tensor, path)")
			}
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			// EncodeDataset's bytes are the elements' as the tensor holds
			// them.
			return nil, ctx.FileWrite(args[1].Str, vals.Append(make([]byte, 0, t.Size())))
		},
	})

	r.Register(&framework.API{
		Name: "tf.keras.preprocessing.image.save_img", Framework: Name, TrueType: framework.TypeStoring,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysUnlink},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("simflow: save_img needs (tensor, path)")
			}
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			// EncodeDataset's bytes are the elements' as the tensor holds
			// them.
			return nil, ctx.FileWrite(args[1].Str, vals.Append(make([]byte, 0, t.Size())))
		},
	})

	return r
}

// exploitOnTensor fires a trigger embedded in tensor values: crafted
// tensors carry the trigger encoded as a run of values spelling the magic
// bytes, one byte value per element.
func exploitOnTensor(ctx *framework.Ctx, api *framework.API, vals object.TensorView) (bool, error) {
	raw := make([]byte, 0, vals.Len())
	for i := range vals.Len() {
		v := vals.At(i)
		if v < 0 || v > 255 || v != math.Trunc(v) {
			break
		}
		raw = append(raw, byte(v))
	}
	return ctx.MaybeExploit(api, raw)
}
