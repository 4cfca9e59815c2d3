package simcv

import (
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// Simulated CVE site assignment. Each id is placed at the API class the
// paper's Table 5 / case studies attribute it to.
const (
	CVEImreadWrite  = "CVE-2017-12597" // unauthorized memory write (imread, §3)
	CVEImreadWrite2 = "CVE-2017-12606" // unauthorized memory write (imread; drone config corruption, §5.4.1)
	CVEImreadRCE    = "CVE-2017-17760" // remote code execution (imread)
	CVEImreadDoS    = "CVE-2017-14136" // DoS (imread; drone crash, §5.4.1)
	CVEImreadLeak   = "CVE-2020-10378" // unauthorized memory read (image load; MComix3, §5.4.2)
	CVECvLoadWrite  = "CVE-2017-12604" // unauthorized memory write (cvLoad)
	CVECapReadWrite = "CVE-2017-12605" // unauthorized memory write (VideoCapture.read)
	CVECapReadDoS   = "CVE-2018-5269"  // DoS (VideoCapture.read)
	CVEDetectRCE    = "CVE-2019-5063"  // RCE (detectMultiScale)
	CVEWarpRCE      = "CVE-2019-5064"  // RCE (warpPerspective)
	CVEDetectDoS    = "CVE-2019-14491" // DoS (detectMultiScale; drone, §5.4.1)
	CVEEqualizeDoS  = "CVE-2019-14492" // DoS (equalizeHist)
	CVEContoursDoS  = "CVE-2019-14493" // DoS (findContours)
	CVEImshowDoS    = "CVE-2019-15939" // DoS (imshow; motivating example B)
)

// floMagic prefixes encoded optical-flow files.
var floMagic = []byte("FLO1")

// flowHeader returns an optical-flow file's 12 header bytes for a
// rows×cols field, in a slice with room for its n payload bytes: the
// field's float64s, 8 big-endian bytes each, as a tensor holds them.
func flowHeader(rows, cols, n int) []byte {
	out := append(make([]byte, 0, 12+n), floMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(rows))
	return binary.BigEndian.AppendUint32(out, uint32(cols))
}

// decodeFlow parses an optical-flow file.
func decodeFlow(b []byte) (rows, cols int, vals []float64, err error) {
	if len(b) < 12 || string(b[:4]) != string(floMagic) {
		return 0, 0, nil, fmt.Errorf("simcv: not a flow file")
	}
	rows = int(binary.BigEndian.Uint32(b[4:8]))
	cols = int(binary.BigEndian.Uint32(b[8:12]))
	n, ok := object.ShapeSize((len(b)-12)/8, rows, cols, 2)
	if !ok || len(b) != 12+8*n {
		return 0, 0, nil, fmt.Errorf("simcv: corrupt flow file")
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(b[12+8*i:]))
	}
	return rows, cols, vals, nil
}

// registerIO installs the loading, visualizing, and storing APIs.
func registerIO(r *framework.Registry) {
	// ---- Data loading ------------------------------------------------------

	var imreadAPI *framework.API
	imreadAPI = &framework.API{
		Name: "cv.imread", Framework: Name, TrueType: framework.TypeLoading,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysLseek, kernel.SysClose, kernel.SysBrk},
		CVEs:      []string{CVEImreadWrite, CVEImreadWrite2, CVEImreadRCE, CVEImreadDoS, CVEImreadLeak},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("imread", args, 1); err != nil {
				return nil, err
			}
			raw, err := ctx.FileRead(args[0].Str)
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(imreadAPI, raw); fired {
				return nil, err
			}
			rows, cols, ch, data, err := DecodeImage(raw)
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(data), 1)
			v, err := outMat(ctx, rows, cols, ch, data)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	}
	r.Register(imreadAPI)

	var cvLoadAPI *framework.API
	cvLoadAPI = &framework.API{
		Name: "cv.cvLoad", Framework: Name, TrueType: framework.TypeLoading,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose},
		CVEs:      []string{CVECvLoadWrite},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cvLoad", args, 1); err != nil {
				return nil, err
			}
			raw, err := ctx.FileRead(args[0].Str)
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(cvLoadAPI, raw); fired {
				return nil, err
			}
			id, _, err := ctx.NewBlob(raw)
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Obj(id)}, nil
		},
	}
	r.Register(cvLoadAPI)

	r.Register(&framework.API{
		Name: "cv.VideoCapture", Framework: Name, TrueType: framework.TypeLoading,
		Stateful:  true,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageDev)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysClose, kernel.SysIoctl, kernel.SysMmap},
		FDLabels:  map[kernel.Sysno][]string{kernel.SysIoctl: {"/dev/camera0"}},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("VideoCapture", args, 1); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("/dev/camera%d", args[0].Int)
			if err := ctx.K.CameraOpen(ctx.P, label); err != nil {
				return nil, err
			}
			id, _, err := ctx.NewBlob([]byte(label))
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Obj(id)}, nil
		},
	})

	var capReadAPI *framework.API
	capReadAPI = &framework.API{
		Name: "cv.VideoCapture.read", Framework: Name, TrueType: framework.TypeLoading,
		Stateful:  true,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageDev)},
		Syscalls:  []kernel.Sysno{kernel.SysBrk, kernel.SysIoctl, kernel.SysSelect, kernel.SysRead},
		FDLabels: map[kernel.Sysno][]string{
			kernel.SysIoctl:  {"/dev/camera0"},
			kernel.SysSelect: {"/dev/camera0"},
		},
		CVEs: []string{CVECapReadWrite, CVECapReadDoS},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("VideoCapture.read", args, 1); err != nil {
				return nil, err
			}
			h, err := ctx.Blob(args[0])
			if err != nil {
				return nil, err
			}
			label, err := h.Bytes()
			if err != nil {
				return nil, err
			}
			frame, ok, err := ctx.CameraRead(string(label))
			if err != nil {
				return nil, err
			}
			if !ok {
				return []framework.Value{framework.Bool(false), framework.Nil()}, nil
			}
			if fired, err := ctx.MaybeExploit(capReadAPI, frame); fired {
				return nil, err
			}
			rows, cols, ch, data, err := DecodeImage(frame)
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(data), 1)
			v, err := outMat(ctx, rows, cols, ch, data)
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Bool(true), v}, nil
		},
	}
	r.Register(capReadAPI)

	r.Register(&framework.API{
		Name: "cv.readOpticalFlow", Framework: Name, TrueType: framework.TypeLoading,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("readOpticalFlow", args, 1); err != nil {
				return nil, err
			}
			raw, err := ctx.FileRead(args[0].Str)
			if err != nil {
				return nil, err
			}
			rows, cols, vals, err := decodeFlow(raw)
			if err != nil {
				return nil, err
			}
			id, t, err := ctx.NewTensor(rows, cols, 2)
			if err != nil {
				return nil, err
			}
			for i, v := range vals {
				if err := t.SetFlat(i, v); err != nil {
					return nil, err
				}
			}
			ctx.Charge(len(raw), 1)
			return []framework.Value{framework.Obj(id)}, nil
		},
	})

	// ---- Visualizing -------------------------------------------------------

	var imshowAPI *framework.API
	imshowAPI = &framework.API{
		Name: "cv.imshow", Framework: Name, TrueType: framework.TypeVisualizing,
		StaticOps:    []framework.Op{framework.WriteOp(framework.StorageGUI, framework.StorageMem)},
		Syscalls:     []kernel.Sysno{kernel.SysSelect, kernel.SysSendto, kernel.SysFutex, kernel.SysEventfd2},
		FDLabels:     map[kernel.Sysno][]string{kernel.SysSelect: {kernel.GUIHost}},
		InitSyscalls: []kernel.Sysno{kernel.SysSocket, kernel.SysConnect},
		CVEs:         []string{CVEImshowDoS},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("imshow", args, 2); err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[1])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(imshowAPI, data); fired {
				return nil, err
			}
			if err := ctx.GUIShow(args[0].Str, m.Size()); err != nil {
				return nil, err
			}
			return nil, nil
		},
	}
	r.Register(imshowAPI)

	guiOp := func(name, op string) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeVisualizing,
			StaticOps: []framework.Op{framework.ReadOp(framework.StorageGUI)},
			Syscalls:  []kernel.Sysno{kernel.SysSelect, kernel.SysSendto},
			FDLabels:  map[kernel.Sysno][]string{kernel.SysSelect: {kernel.GUIHost}},
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				win := ""
				if len(args) > 0 {
					win = args[0].Str
				}
				if err := ctx.GUIOp(op, win); err != nil {
					return nil, err
				}
				return nil, nil
			},
		}
	}
	r.Register(guiOp("cv.namedWindow", "create"))
	r.Register(guiOp("cv.moveWindow", "move"))
	r.Register(guiOp("cv.resizeWindow", "resize"))
	r.Register(guiOp("cv.setWindowTitle", "title"))
	r.Register(guiOp("cv.destroyAllWindows", "destroyAll"))

	key := func(name string) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeVisualizing,
			StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageGUI)},
			Syscalls:  []kernel.Sysno{kernel.SysSelect, kernel.SysRecvfrom},
			FDLabels:  map[kernel.Sysno][]string{kernel.SysSelect: {kernel.GUIHost}},
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				if err := ctx.K.Syscall(ctx.P, kernel.SysSelect, kernel.GUIHost); err != nil {
					return nil, err
				}
				if err := ctx.K.Syscall(ctx.P, kernel.SysRecvfrom, ""); err != nil {
					return nil, err
				}
				ctx.EmitMemOp()
				return []framework.Value{framework.Int64(int64(ctx.K.GUI.PopKey()))}, nil
			},
		}
	}
	r.Register(key("cv.pollKey"))
	r.Register(key("cv.waitKey"))

	r.Register(&framework.API{
		Name: "cv.getMouseWheelDelta", Framework: Name, TrueType: framework.TypeVisualizing,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageGUI)},
		Syscalls:  []kernel.Sysno{kernel.SysSelect, kernel.SysRecvfrom},
		FDLabels:  map[kernel.Sysno][]string{kernel.SysSelect: {kernel.GUIHost}},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := ctx.K.Syscall(ctx.P, kernel.SysSelect, kernel.GUIHost); err != nil {
				return nil, err
			}
			if err := ctx.K.Syscall(ctx.P, kernel.SysRecvfrom, ""); err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			return []framework.Value{framework.Int64(0)}, nil
		},
	})

	// getRecentWindows models GTK RecentManager-style state read by viewer
	// apps (MComix3 case study): GUI-owned state copied into memory.
	r.Register(&framework.API{
		Name: "cv.getRecentWindows", Framework: Name, TrueType: framework.TypeVisualizing,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageGUI)},
		Syscalls:  []kernel.Sysno{kernel.SysSelect, kernel.SysRecvfrom},
		FDLabels:  map[kernel.Sysno][]string{kernel.SysSelect: {kernel.GUIHost}},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			names, err := ctx.GUIReadState()
			if err != nil {
				return nil, err
			}
			out := ""
			for i, n := range names {
				if i > 0 {
					out += "\n"
				}
				out += n
			}
			return []framework.Value{framework.Str(out)}, nil
		},
	})

	// ---- Storing -----------------------------------------------------------

	r.Register(&framework.API{
		Name: "cv.imwrite", Framework: Name, TrueType: framework.TypeStoring,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysUmask},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("imwrite", args, 2); err != nil {
				return nil, err
			}
			m, err := ctx.Mat(args[1])
			if err != nil {
				return nil, err
			}
			enc, err := EncodeMat(m)
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(enc), 1)
			if err := ctx.FileWrite(args[0].Str, enc); err != nil {
				return nil, err
			}
			return []framework.Value{framework.Bool(true)}, nil
		},
	})

	r.Register(&framework.API{
		Name: "cv.writeOpticalFlow", Framework: Name, TrueType: framework.TypeStoring,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("writeOpticalFlow", args, 2); err != nil {
				return nil, err
			}
			t, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			sh := t.Shape()
			if len(sh) != 3 || sh[2] != 2 {
				return nil, fmt.Errorf("simcv: flow tensor must be rows x cols x 2, got %v", sh)
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			if err := ctx.FileWrite(args[0].Str, vals.Append(flowHeader(sh[0], sh[1], t.Size()))); err != nil {
				return nil, err
			}
			return []framework.Value{framework.Bool(true)}, nil
		},
	})

	r.Register(&framework.API{
		Name: "cv.VideoWriter", Framework: Name, TrueType: framework.TypeStoring,
		Stateful:  true,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysClose, kernel.SysMkdir},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("VideoWriter", args, 1); err != nil {
				return nil, err
			}
			if err := ctx.K.Syscall(ctx.P, kernel.SysOpenat, ""); err != nil {
				return nil, err
			}
			id, _, err := ctx.NewBlob([]byte(args[0].Str))
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Obj(id)}, nil
		},
	})

	r.Register(&framework.API{
		Name: "cv.VideoWriter.write", Framework: Name, TrueType: framework.TypeStoring,
		Stateful:  true,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysWrite, kernel.SysLseek},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("VideoWriter.write", args, 2); err != nil {
				return nil, err
			}
			h, err := ctx.Blob(args[0])
			if err != nil {
				return nil, err
			}
			path, err := h.Bytes()
			if err != nil {
				return nil, err
			}
			m, err := ctx.Mat(args[1])
			if err != nil {
				return nil, err
			}
			enc, err := EncodeMat(m)
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(enc), 1)
			if err := ctx.FileAppend(string(path), enc); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
}
