package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/workload"
)

// generatedDigest is the SHA-256 TestGeneratedInputsDigest reads.
const generatedDigest = "9d243a9e8cfcca2a5a012c64faaf1f9a34980f0058cc2add6d8d8e75755f2db9"

// TestGeneratedInputsDigest pins the bytes the generators make and the
// order they draw in: one SHA-256 over every file and camera frame the 23
// Fig. 13 apps provision at scale 8, the 2,000 detection request bodies
// perfbench serves, and draws of every other generator interleaved
// between them on one stream. A change to how a generator encodes what it
// draws must leave this digest as it is.
func TestGeneratedInputsDigest(t *testing.T) {
	h := sha256.New()
	g := workload.New(5)
	draws := []func(){
		func() {
			img, answers, rows, cols := g.OMRSheet(4, 3, 6)
			write(h, img)
			for _, v := range append(answers, rows, cols) {
				write(h, binary.BigEndian.AppendUint64(nil, uint64(v)))
			}
		},
		func() { write(h, g.Text(16)) },
		func() { write(h, g.EncodedDataset(8)) },
		func() { write(h, g.EncodedImage(9, 7, 3)) },
		func() { write(h, g.Model(5, 3)) },
		func() { enc, _ := g.EncodedOMRSheet(3, 4, 5); write(h, enc) },
	}
	for i, a := range apps.All() {
		k := kernel.New()
		apps.NewEnvScaled(k, nil, a, 8)
		for _, p := range k.FS.List("") {
			data, err := k.FS.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			write(h, []byte(p))
			write(h, data)
		}
		cam, _ := k.Camera("/dev/camera0")
		for frame, ok := cam.Read(); ok; frame, ok = cam.Read() {
			write(h, frame)
		}
		draws[i%len(draws)]()
	}
	for i, r := range apps.GenDetectionRequests(1, 2000) {
		write(h, r.Body)
		if i%400 == 0 {
			draws[i/400%len(draws)]()
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatedDigest {
		t.Fatalf("generated inputs digest %s, want %s", got, generatedDigest)
	}
}

// write hashes b behind its length, so no two sequences of writes hash
// the same bytes.
func write(h hash.Hash, b []byte) {
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(b))))
	h.Write(b)
}
