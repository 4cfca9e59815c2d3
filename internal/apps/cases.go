package apps

import (
	"fmt"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/mem"
)

// Drone is the autonomous object-tracking drone of §5.4.1: it loads camera
// images through the (vulnerable) loading APIs, recognizes the tracked
// object, and steers toward it. Its speed configuration is critical host
// data — corrupting it to a negative value reverses the drone.
type Drone struct {
	// Speed is the self.speed variable: stored in host memory as a
	// fixed-point int8 (0.3 → 30).
	SpeedRegion mem.Region
	space       *mem.AddressSpace
	// Commands records the steering commands sent to the drone hardware.
	Commands []string
	// FramesHandled counts successfully processed camera frames.
	FramesHandled int
}

// NewDrone allocates the drone's configuration in the host space.
func NewDrone(e *Env) (*Drone, error) {
	space := hostSpaceOf(e)
	r, err := space.Alloc(16)
	if err != nil {
		return nil, err
	}
	if err := space.Store(r.Base, []byte{30}); err != nil { // speed 0.3
		return nil, err
	}
	d := &Drone{SpeedRegion: r, space: space}
	if e.Rt != nil {
		e.Rt.RegisterCritical(r)
	}
	return d, nil
}

// Speed reads the current speed configuration (fixed-point /100).
func (d *Drone) Speed() (float64, error) {
	b, err := d.space.LoadByte(d.SpeedRegion.Base)
	if err != nil {
		return 0, err
	}
	return float64(int8(b)) / 100, nil
}

// Fly processes frames from the provisioned input files (the camera feed),
// tracking the brightest region and steering toward it. A dead loading
// agent stops frame handling but must not stop the control loop — the
// paper's availability argument.
func (d *Drone) Fly(e *Env, frames int) error {
	for i := 0; i < frames; i++ {
		path := e.Inputs[i%len(e.Inputs)]
		imgs, _, err := e.Call("cv.imread", framework.Str(path))
		if err != nil {
			// The data-loading process is down: keep flying blind.
			d.Commands = append(d.Commands, "hover")
			continue
		}
		gray := grayOf(e, imgs[0])
		_, mm, err := e.Call("cv.minMaxLoc", gray.Value())
		if err != nil {
			d.Commands = append(d.Commands, "hover")
			continue
		}
		speed, err := d.Speed()
		if err != nil {
			return err
		}
		d.FramesHandled++
		dir := "toward"
		if speed < 0 {
			dir = "away"
		}
		d.Commands = append(d.Commands, fmt.Sprintf("move %s (%d,%d) at %.2f", dir, mm[2].Int, mm[3].Int, speed))
	}
	return nil
}

// Viewer is the MComix3-style image viewer of §5.4.2. The recently opened
// file names are sensitive: one copy lives in host memory
// (self._window.uimanager.recent) and one inside the GUI subsystem
// (Gtk.RecentManager).
type Viewer struct {
	RecentRegion mem.Region
	space        *mem.AddressSpace
	recentLen    int
}

// NewViewer allocates the host-side recent-files list.
func NewViewer(e *Env) (*Viewer, error) {
	space := hostSpaceOf(e)
	r, err := space.Alloc(256)
	if err != nil {
		return nil, err
	}
	// The recent list is continually appended by the app, so temporal
	// read-only protection does not apply; its defense is process
	// isolation (the exploit runs in the loading agent, §5.4.2).
	return &Viewer{RecentRegion: r, space: space}, nil
}

// Open loads and displays an image, recording its name in both recent
// lists (host memory and the GUI subsystem via the window title).
func (v *Viewer) Open(e *Env, path string) error {
	imgs, _, err := e.Call("cv.imread", framework.Str(path))
	if err != nil {
		return err
	}
	if _, _, err := e.Call("cv.imshow", framework.Str(path), imgs[0].Value()); err != nil {
		return err
	}
	entry := append([]byte(path), '\n')
	if v.recentLen+len(entry) <= v.RecentRegion.Size {
		if err := v.space.Store(v.RecentRegion.Base+mem.Addr(v.recentLen), entry); err != nil {
			return err
		}
		v.recentLen += len(entry)
	}
	return nil
}

// Recent reads the host-side recent list.
func (v *Viewer) Recent() (string, error) {
	if v.recentLen == 0 {
		return "", nil
	}
	b, err := v.space.Load(v.RecentRegion.Base, v.recentLen)
	return string(b), err
}

// MedicalApp is the StegoNet CT-image victim (§A.7): patient metadata in
// host memory, CT images through the loading path, inference through a
// (possibly trojaned) model in the processing path.
type MedicalApp struct {
	PatientRegion mem.Region
	Diagnoses     []int
}

// NewMedicalApp allocates the patient record in host memory.
func NewMedicalApp(e *Env, record string) (*MedicalApp, error) {
	space := hostSpaceOf(e)
	r, err := space.Alloc(128)
	if err != nil {
		return nil, err
	}
	if err := space.Store(r.Base, []byte(record)); err != nil {
		return nil, err
	}
	m := &MedicalApp{PatientRegion: r}
	if e.Rt != nil {
		e.Rt.RegisterCritical(r)
	}
	return m, nil
}

// Analyze loads a CT image and runs the model over it.
func (m *MedicalApp) Analyze(e *Env, imgPath, modelPath string) error {
	if _, _, err := e.Call("cv.imread", framework.Str(imgPath)); err != nil {
		return err
	}
	model, _, err := e.Call("torch.load", framework.Str(modelPath))
	if err != nil {
		return err
	}
	in, _ := e.MustCall("torch.tensor", framework.Int64(int64(512*e.Scale*e.Scale)), framework.Float64(0.7))
	out, _, err := e.Call("torch.Module.forward", model[0].Value(), in[0].Value())
	if err != nil {
		return err
	}
	_, cls, err := e.Call("torch.argmax", out[0].Value())
	if err != nil {
		return err
	}
	m.Diagnoses = append(m.Diagnoses, int(cls[0].Int))
	return nil
}

// InvoiceApp is the StegoNet tax-invoice OCR victim (§A.7): taxpayer
// details in host memory, invoice images through loading, OCR through the
// model.
type InvoiceApp struct {
	TaxpayerRegion mem.Region
	Processed      int
}

// NewInvoiceApp allocates the taxpayer record.
func NewInvoiceApp(e *Env, record string) (*InvoiceApp, error) {
	space := hostSpaceOf(e)
	r, err := space.Alloc(128)
	if err != nil {
		return nil, err
	}
	if err := space.Store(r.Base, []byte(record)); err != nil {
		return nil, err
	}
	a := &InvoiceApp{TaxpayerRegion: r}
	if e.Rt != nil {
		e.Rt.RegisterCritical(r)
	}
	return a, nil
}

// Process OCRs one invoice image through the model.
func (a *InvoiceApp) Process(e *Env, imgPath, modelPath string) error {
	imgs, _, err := e.Call("cv.imread", framework.Str(imgPath))
	if err != nil {
		return err
	}
	thr, _ := e.MustCall("cv.adaptiveThreshold", imgs[0].Value())
	if _, _, err := e.Call("cv.findContours", thr[0].Value()); err != nil {
		return err
	}
	model, _, err := e.Call("torch.load", framework.Str(modelPath))
	if err != nil {
		return err
	}
	in, _ := e.MustCall("torch.tensor", framework.Int64(int64(512*e.Scale*e.Scale)), framework.Float64(0.4))
	if _, _, err := e.Call("torch.Module.forward", model[0].Value(), in[0].Value()); err != nil {
		return err
	}
	a.Processed++
	return nil
}

// CaseApp wraps a case-study program as an App so the standard harness
// (env provisioning, overhead measurement) applies.
func CaseApp(id int, name string, pipeline func(e *Env) error) App {
	return App{ID: id, Name: name, Framework: "simcv", Lang: "Python",
		Inputs: 5, ImgRows: 16, ImgCols: 16, Desc: "case study", Pipeline: pipeline}
}

// DroneApp returns the drone case study as a runnable App (id 101).
func DroneApp() App {
	return CaseApp(101, "autonomous-drone", func(e *Env) error {
		d, err := NewDrone(e)
		if err != nil {
			return err
		}
		return d.Fly(e, 2*len(e.Inputs))
	})
}

// ViewerApp returns the MComix3 case study as a runnable App (id 102).
func ViewerApp() App {
	return CaseApp(102, "mcomix3-viewer", func(e *Env) error {
		v, err := NewViewer(e)
		if err != nil {
			return err
		}
		for _, p := range e.Inputs {
			if err := v.Open(e, p); err != nil {
				return err
			}
		}
		return nil
	})
}
