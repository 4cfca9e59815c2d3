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
	"freepart.dev/freepart/internal/framework/tensors"
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

// EncodeDataset serializes float64 samples for image_dataset_from_directory
// and estimator training.
func EncodeDataset(vals []float64) []byte {
	return BuildDataset(len(vals), func(i int) float64 { return vals[i] })
}

// BuildDataset serializes a dataset of n samples into one buffer of exactly
// the encoded size. sample(i) gives the i-th sample; it is called once per
// sample, in order, as the sample is encoded.
func BuildDataset(n int, sample func(i int) float64) []byte {
	out := make([]byte, 8*n)
	for i := range n {
		binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(sample(i)))
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

	// The paper's worked §4.2.1 example: download → stash in a temp file →
	// read back. Static ops expose the full chain; the analyzer must reduce
	// the FILE round trip away.
	r.Register(tensors.DownloadLoader(&framework.API{
		Name: "tf.keras.utils.get_file", Framework: Name,
		Syscalls: []kernel.Sysno{kernel.SysSocket, kernel.SysConnect, kernel.SysRecvfrom, kernel.SysOpenat, kernel.SysWrite, kernel.SysRead, kernel.SysClose},
	}, "storage.googleapis.com", "/tmp/", "simflow: get_file needs a name", "simflow: no download queued for %q", true))

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
			return tensors.Out(ctx, []int{n / 8}, func(int) float64 {
				if len(raws[0]) == 0 {
					raws = raws[1:]
				}
				x := math.Float64frombits(binary.BigEndian.Uint64(raws[0]))
				raws[0] = raws[0][8:]
				return x
			})
		},
	})

	r.Register(tensors.FileLoader(&framework.API{
		Name: "tf.io.read_file", Framework: Name,
		Syscalls: []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose},
	}, "simflow: read_file needs a path", nil))

	// ---- Data processing ---------------------------------------------------

	conv3d := &framework.API{
		Name: "tf.nn.conv3d", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 27,
		CVEs: []string{CVEConv3dDoS},
		Impl: nil, // set below (needs self-reference for MaybeExploit)
	}
	conv3d.Impl = func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		in, err := tensors.Arg(ctx, Name, args, 0)
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
		if fired, err := tensors.Exploit(ctx, conv3d, vi); fired {
			return nil, err
		}
		ctx.Charge(in.Size(), 27)
		ctx.EmitMemOp()
		h, w := si[1], si[2]
		oh, ow := h-2, w-2
		return tensors.Out(ctx, []int{si[0] - 2, oh, ow}, func(o int) float64 {
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
	}
	r.Register(conv3d)

	pool := func(name, cve string, avg bool) *framework.API {
		return tensors.Pool(&framework.API{
			Name: name, Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 4, CVEs: []string{cve},
		}, avg)
	}
	r.Register(pool("tf.nn.avg_pool", CVEAvgPoolDoS, true))
	r.Register(pool("tf.nn.max_pool", CVEMaxPoolDoS, false))

	r.Register(tensors.Matmul(&framework.API{
		Name: "tf.matmul", Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 8,
		CVEs: []string{CVEMatmulDoS},
	}))

	ew := func(name string, f func(float64) float64) *framework.API {
		return tensors.Elementwise(&framework.API{Name: name, Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1}, f)
	}
	r.Register(ew("tf.nn.relu", func(v float64) float64 { return math.Max(0, v) }))
	r.Register(ew("tf.nn.softplus", func(v float64) float64 { return math.Log1p(math.Exp(v)) }))
	r.Register(ew("tf.cast", func(v float64) float64 { return math.Trunc(v) }))
	r.Register(ew("tf.square", func(v float64) float64 { return v * v }))

	reduce := func(name string, f func(object.TensorView) framework.Value) *framework.API {
		return tensors.Reduce(&framework.API{Name: name, Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1}, f)
	}
	r.Register(reduce("tf.reduce_mean", tensors.Mean))
	r.Register(reduce("tf.argmax", tensors.Argmax))

	r.Register(&framework.API{
		Name: "tf.one_hot", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("simflow: one_hot needs (index, depth)")
			}
			idx, depth := int(args[0].Int), int(args[1].Int)
			if depth <= 0 || idx < 0 || idx >= depth {
				return nil, fmt.Errorf("simflow: one_hot(%d, %d)", idx, depth)
			}
			ctx.EmitMemOp()
			return tensors.Out(ctx, []int{depth}, func(i int) float64 {
				if i == idx {
					return 1
				}
				return 0
			})
		},
	})

	// tf.image.resize works on tensors shaped HxW.
	r.Register(&framework.API{
		Name: "tf.image.resize", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			in, err := tensors.Arg(ctx, Name, args, 0)
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
			return tensors.Out(ctx, []int{nh, nw}, func(o int) float64 {
				y, x := o/nw, o%nw
				return vi.At((y*si[0]/nh)*si[1] + x*si[1]/nw)
			})
		},
	})

	// DNNClassifier.train is the stateful API of §A.2.4: it accumulates
	// training state in a caller-held state tensor [steps, loss].
	r.Register(&framework.API{
		Name: "tf.estimator.DNNClassifier.train", Framework: Name,
		TrueType: framework.TypeProcessing, Stateful: true, SharedState: true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex, kernel.SysGetrandom}, Intensity: 12,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			st, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			data, err := tensors.Arg(ctx, Name, args, 1)
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
			// A refused store leaves the state partly updated, so it fails
			// the call rather than report success over that state, as in
			// cv.KalmanFilter.correct.
			if err := st.SetFlat(0, steps+1); err != nil {
				return nil, err
			}
			if err := st.SetFlat(1, 0.9*prev+0.1*loss); err != nil {
				return nil, err
			}
			return []framework.Value{framework.Float64(loss)}, nil
		},
	})

	// enable_dump_debug_info reads profiling state other APIs write — the
	// shared-state debugging API discussed in §A.6.
	r.Register(&framework.API{
		Name: "tf.debugging.experimental.enable_dump_debug_info", Framework: Name,
		TrueType: framework.TypeProcessing, Stateful: true, SharedState: true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysOpenat, kernel.SysWrite, kernel.SysClose}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			dir := "/tmp/tfdbg"
			if len(args) > 0 && args[0].Str != "" {
				dir = args[0].Str
			}
			return nil, ctx.FileAppend(dir+"/dump.log", []byte("debug dump enabled\n"))
		},
	})

	// ---- Storing ------------------------------------------------------------

	// Both write EncodeDataset's bytes: the elements' as the tensor holds
	// them.
	r.Register(tensors.Writer(&framework.API{
		Name: "tf.keras.Model.save_weights", Framework: Name,
		Syscalls: []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysMkdir, kernel.SysAccess},
	}, "simflow: save_weights needs (tensor, path)"))
	r.Register(tensors.Writer(&framework.API{
		Name: "tf.keras.preprocessing.image.save_img", Framework: Name,
		Syscalls: []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysUnlink},
	}, "simflow: save_img needs (tensor, path)"))

	return r
}
