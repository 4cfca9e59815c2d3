package all_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/trace"
)

// apisGolden holds one line per API of all.Registry(), in name order.
const apisGolden = "testdata/apis.golden"

// TestAPIsGolden pins every API's metadata, which categorization and the
// seccomp filters are derived from, and the ops the trace suite observes
// when it runs the API: framework, true type, static ops, syscalls, init
// syscalls, fd labels, intensity, CVEs, flags and traced ops. A change
// that drops a syscall from one API, or a traced op from one kernel, can
// leave every output of the experiments as it was; it fails here.
func TestAPIsGolden(t *testing.T) {
	got := apiLines()
	raw, err := os.ReadFile(apisGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// apiLines renders each API of all.Registry() as its golden line.
func apiLines() []string {
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(kernel.New(), runner)
	var got []string
	for _, api := range reg.All() {
		got = append(got, fmt.Sprintf("%s fw=%s type=%v ops=%v sys=%v init=%v fd=%v intensity=%g cves=%v stateful=%t shared=%t neutral=%t dynonly=%t traced=%v",
			api.Name, api.Framework, api.TrueType, api.StaticOps, api.Syscalls, api.InitSyscalls, api.FDLabels,
			api.Intensity, api.CVEs, api.Stateful, api.SharedState, api.Neutral, api.DynamicOnly, runner.Recorder.Ops(api.Name)))
	}
	return got
}
