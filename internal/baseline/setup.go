package baseline

import (
	"fmt"
	"strings"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
)

// loadingAPIs lists the vulnerable loading APIs Fig. 2 isolates in the
// first code partition.
func loadingAPIs() map[string]bool {
	return map[string]bool{
		"cv.imread": true, "cv.cvLoad": true,
		"cv.VideoCapture": true, "cv.VideoCapture.read": true,
		"cv.readOpticalFlow": true, "cv.CascadeClassifier": true,
	}
}

// New builds a baseline System of the given kind over the APIs the target
// application uses (apiNames; nil = every registered API).
func New(kind Kind, k *kernel.Kernel, reg *framework.Registry, apiNames []string) (*System, error) {
	s := &System{
		Kind: kind, K: k, Reg: reg,
		Metrics:   metrics.New(),
		homeOf:    make(map[string]int),
		criticals: make(map[string]critical),
		codeOf:    make(map[string]codeLoc),
		owners:    make(map[uint64]ownerRef),
	}
	s.host = k.Spawn("host:" + kind.String())
	s.hostCtx = framework.NewCtx(k, s.host)

	if apiNames == nil {
		for _, a := range reg.All() {
			apiNames = append(apiNames, a.Name)
		}
	}

	spawn := func(name string) int {
		p := k.Spawn(name)
		s.procs = append(s.procs, p)
		s.ctxs = append(s.ctxs, framework.NewCtx(k, p))
		return len(s.procs) - 1
	}

	switch kind {
	case CodeAPI, CodeAPIData:
		// Fig. 2-(a): P1 = init code + loading APIs, P2 = imshow,
		// P3 (the host here) = the remaining code and APIs.
		p1 := spawn("code:init+load")
		p2 := spawn("code:show")
		loaders := loadingAPIs()
		for _, name := range apiNames {
			switch {
			case loaders[name]:
				s.homeOf[name] = p1
			case name == "cv.imshow":
				s.homeOf[name] = p2
			default:
				s.homeOf[name] = -1
			}
		}
		// Fig. 2-(b) adds two data-only processes; PlaceCriticalAuto
		// routes criticals there.
		if kind == CodeAPIData {
			spawn("data:template")
			spawn("data:omrcrop")
		}

	case LibraryEntire:
		lib := spawn("library")
		for _, name := range apiNames {
			s.homeOf[name] = lib
		}
		s.sharedData = true

	case LibraryPerAPI:
		for _, name := range apiNames {
			s.homeOf[name] = spawn("api:" + shorten(name))
		}

	case MemoryBased:
		for _, name := range apiNames {
			s.homeOf[name] = -1
		}

	default:
		return nil, fmt.Errorf("baseline: unknown kind %d", kind)
	}

	// Install each API's code region in its home process.
	for _, name := range apiNames {
		if err := s.allocCode(name); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// shorten trims an API name for process naming.
func shorten(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 && i+1 < len(name) {
		return name[i+1:]
	}
	return name
}

// PlaceCriticalAuto places a named critical variable per the technique's
// data policy and returns its region:
//   - CodeAPI: "template"-style config data sits in the init+load process
//     (the co-residency flaw of Fig. 2-(a)); everything else in the host.
//   - CodeAPIData: each critical gets its own data process.
//   - Others: host process (MemoryBased additionally seals it read-only).
func (s *System) PlaceCriticalAuto(name string, data []byte) (mem.Region, error) {
	proc := s.host
	switch s.Kind {
	case CodeAPI:
		if name == "template" {
			proc = s.procs[0] // init+load partition
		}
	case CodeAPIData:
		switch name {
		case "template":
			proc = s.procs[2]
		case "omrcrop":
			proc = s.procs[3]
		}
	}
	return s.PlaceCritical(name, data, proc)
}
