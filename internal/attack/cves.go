package attack

import (
	"sync"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
)

// VulnClass is a vulnerability category (Fig. 7's legend).
type VulnClass uint8

// Vulnerability classes.
const (
	ClassMemWrite VulnClass = iota // unauthorized memory write
	ClassMemRead                   // unauthorized memory read
	ClassDoS                       // denial of service
	ClassFileRead                  // unauthorized file read
	ClassRCE                       // remote code execution
)

// String names the class as the paper's legend does.
func (c VulnClass) String() string {
	switch c {
	case ClassMemWrite:
		return "Unauthorized memory write"
	case ClassMemRead:
		return "Unauthorized memory read"
	case ClassDoS:
		return "DoS (Denial of Service)"
	case ClassFileRead:
		return "Unauthorized file read"
	case ClassRCE:
		return "Remote Code Execution"
	default:
		return "unknown"
	}
}

// CVE describes one vulnerability.
type CVE struct {
	ID        string
	Framework string
	Class     VulnClass
	// APIType is the task category whose APIs host the vulnerability.
	APIType framework.APIType
	// API names the vulnerable API in the simulated frameworks (empty for
	// study-corpus entries that are not implemented as live CVE sites).
	API string
	// Samples lists affected evaluation application ids (Table 5).
	Samples []int
}

// EvalCVEs returns the 18 CVEs reproduced for the evaluation (Table 5),
// wired to live vulnerability sites in the simulated frameworks.
func EvalCVEs() []CVE {
	return []CVE{
		{ID: "CVE-2017-12604", Framework: "OpenCV", Class: ClassMemWrite, APIType: framework.TypeLoading, API: "cv.cvLoad", Samples: []int{1, 9, 10, 12}},
		{ID: "CVE-2017-12605", Framework: "OpenCV", Class: ClassMemWrite, APIType: framework.TypeLoading, API: "cv.VideoCapture.read", Samples: []int{1, 9, 10, 12}},
		{ID: "CVE-2017-12606", Framework: "OpenCV", Class: ClassMemWrite, APIType: framework.TypeLoading, API: "cv.imread", Samples: []int{1, 9, 10, 12}},
		{ID: "CVE-2017-12597", Framework: "OpenCV", Class: ClassMemWrite, APIType: framework.TypeLoading, API: "cv.imread", Samples: []int{1, 8, 9, 10, 12}},
		{ID: "CVE-2017-17760", Framework: "OpenCV", Class: ClassRCE, APIType: framework.TypeLoading, API: "cv.imread", Samples: []int{1, 7, 10, 12}},
		{ID: "CVE-2019-5063", Framework: "OpenCV", Class: ClassRCE, APIType: framework.TypeProcessing, API: "cv.CascadeClassifier.detectMultiScale", Samples: []int{1, 9, 10}},
		{ID: "CVE-2019-5064", Framework: "OpenCV", Class: ClassRCE, APIType: framework.TypeProcessing, API: "cv.warpPerspective", Samples: []int{1, 9, 10}},
		{ID: "CVE-2017-14136", Framework: "OpenCV", Class: ClassDoS, APIType: framework.TypeLoading, API: "cv.imread", Samples: []int{1, 7, 9, 10, 12}},
		{ID: "CVE-2018-5269", Framework: "OpenCV", Class: ClassDoS, APIType: framework.TypeLoading, API: "cv.VideoCapture.read", Samples: []int{1, 7, 9, 10, 12}},
		{ID: "CVE-2019-14491", Framework: "OpenCV", Class: ClassDoS, APIType: framework.TypeProcessing, API: "cv.CascadeClassifier.detectMultiScale", Samples: []int{1, 9, 10}},
		{ID: "CVE-2019-14492", Framework: "OpenCV", Class: ClassDoS, APIType: framework.TypeProcessing, API: "cv.equalizeHist", Samples: []int{1, 9, 10}},
		{ID: "CVE-2019-14493", Framework: "OpenCV", Class: ClassDoS, APIType: framework.TypeProcessing, API: "cv.findContours", Samples: []int{1, 9, 10}},
		{ID: "CVE-2021-29513", Framework: "TensorFlow", Class: ClassDoS, APIType: framework.TypeProcessing, API: "tf.nn.conv3d", Samples: []int{21, 23}},
		{ID: "CVE-2021-29618", Framework: "TensorFlow", Class: ClassDoS, APIType: framework.TypeProcessing, API: "tf.nn.avg_pool", Samples: []int{23}},
		{ID: "CVE-2021-37661", Framework: "TensorFlow", Class: ClassDoS, APIType: framework.TypeProcessing, API: "tf.nn.max_pool", Samples: []int{21, 22, 23}},
		{ID: "CVE-2021-41198", Framework: "TensorFlow", Class: ClassDoS, APIType: framework.TypeProcessing, API: "tf.matmul", Samples: []int{20, 22}},
		{ID: "CVE-2019-15939", Framework: "OpenCV", Class: ClassDoS, APIType: framework.TypeVisualizing, API: "cv.imshow", Samples: []int{8}},
		{ID: "CVE-2020-10378", Framework: "Pillow", Class: ClassMemRead, APIType: framework.TypeLoading, API: "cv.imread", Samples: []int{3}},
	}
}

// evalIndex memoizes the id → CVE map: EvalCVEByID runs inside replay
// loops (18 CVEs × policies × samples), so rebuilding and rescanning the
// slice per lookup is pure waste.
var evalIndex struct {
	once sync.Once
	byID map[string]CVE
}

// EvalCVEByID looks up an evaluation CVE.
func EvalCVEByID(id string) (CVE, bool) {
	evalIndex.once.Do(func() {
		evalIndex.byID = make(map[string]CVE)
		for _, c := range EvalCVEs() {
			evalIndex.byID[c.ID] = c
		}
	})
	c, ok := evalIndex.byID[id]
	return c, ok
}

// BlockedBy reports whether an isolation tier contains this vulnerability
// class — the per-tier blocked semantics behind the frontier matrix.
//
//   - TierProcess (paper): a separate address space stops wild reads and
//     writes, seccomp stops code-rewrite mprotect and fork bombs, and the
//     supervisor restarts a crashed agent — every class is contained.
//   - TierDomain (ERIM-style MPK): the PKRU narrows on entry, so
//     cross-domain memory reads and writes fault deterministically. But
//     the domain shares the host's process: a crash is the host's crash
//     (DoS unblocked), and with no per-domain seccomp an mprotect-based
//     code rewrite or fork bomb proceeds (RCE/file-read unblocked).
//   - TierHost: nothing is blocked.
func (c VulnClass) BlockedBy(t isolation.Tier) bool {
	switch t {
	case isolation.TierProcess:
		return true
	case isolation.TierDomain:
		return c == ClassMemWrite || c == ClassMemRead
	default:
		return false
	}
}

// RequiredTier returns the weakest isolation tier that contains this
// vulnerability class — the escalation target the defense controller
// jumps to on a sighting. Memory reads and writes fault under the MPK
// domain's protection keys, so TierDomain suffices; everything else
// (DoS, RCE, file read, fork bombs) needs the separate address space,
// seccomp filter, and restartable fate of TierProcess.
func (c VulnClass) RequiredTier() isolation.Tier {
	if c.BlockedBy(isolation.TierDomain) {
		return isolation.TierDomain
	}
	return isolation.TierProcess
}

// studyProfile describes one framework's CVE distribution in the §4.1
// study 2 corpus (241 CVEs, Aug 2018 – Feb 2022): counts per API type and
// the class mix within each type. The totals (172/44/22/3) come from the
// paper; the per-type split reconstructs Fig. 7's shape (vulnerabilities
// concentrated in loading and processing, all four types represented).
type studyProfile struct {
	framework string
	perType   map[framework.APIType]int
	classes   []VulnClass // cycled deterministically across entries
}

func studyProfiles() []studyProfile {
	return []studyProfile{
		{
			framework: "TensorFlow",
			perType: map[framework.APIType]int{
				framework.TypeLoading:     54,
				framework.TypeProcessing:  111,
				framework.TypeStoring:     6,
				framework.TypeVisualizing: 1,
			},
			classes: []VulnClass{ClassDoS, ClassDoS, ClassMemRead, ClassDoS, ClassMemWrite},
		},
		{
			framework: "Pillow",
			perType: map[framework.APIType]int{
				framework.TypeLoading:     30,
				framework.TypeProcessing:  9,
				framework.TypeVisualizing: 4,
				framework.TypeStoring:     1,
			},
			classes: []VulnClass{ClassDoS, ClassMemRead, ClassMemWrite, ClassDoS},
		},
		{
			framework: "OpenCV",
			perType: map[framework.APIType]int{
				framework.TypeLoading:     11,
				framework.TypeProcessing:  8,
				framework.TypeVisualizing: 2,
				framework.TypeStoring:     1,
			},
			classes: []VulnClass{ClassMemWrite, ClassDoS, ClassMemRead, ClassFileRead},
		},
		{
			framework: "NumPy",
			perType: map[framework.APIType]int{
				framework.TypeLoading:    1,
				framework.TypeProcessing: 2,
			},
			classes: []VulnClass{ClassDoS, ClassMemWrite},
		},
	}
}

// StudyCorpus synthesizes the 241-CVE study corpus deterministically.
func StudyCorpus() []CVE {
	var out []CVE
	n := 0
	for _, p := range studyProfiles() {
		types := []framework.APIType{
			framework.TypeLoading, framework.TypeProcessing,
			framework.TypeVisualizing, framework.TypeStoring,
		}
		for _, t := range types {
			for i := 0; i < p.perType[t]; i++ {
				out = append(out, CVE{
					ID:        studyID(p.framework, n),
					Framework: p.framework,
					Class:     p.classes[n%len(p.classes)],
					APIType:   t,
				})
				n++
			}
		}
	}
	return out
}

// studyID derives a stable synthetic id.
func studyID(fw string, n int) string {
	return "STUDY-" + fw + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// CorpusByTypeAndClass tabulates the study corpus for Fig. 7.
func CorpusByTypeAndClass(corpus []CVE) map[framework.APIType]map[VulnClass]int {
	out := make(map[framework.APIType]map[VulnClass]int)
	for _, c := range corpus {
		if out[c.APIType] == nil {
			out[c.APIType] = make(map[VulnClass]int)
		}
		out[c.APIType][c.Class]++
	}
	return out
}
