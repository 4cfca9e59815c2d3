// Package workload generates the deterministic inputs the evaluation runs
// on: synthetic images (plain, faces, OMR sheets), video frame streams,
// text corpora, numeric datasets, and classifier/model files. Everything
// derives from seeded PRNGs so every experiment is bit-reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/framework/simflow"
	"freepart.dev/freepart/internal/framework/simtorch"
	"freepart.dev/freepart/internal/kernel"
)

// Gen is a seeded workload generator.
type Gen struct {
	rng *rand.Rand
}

// New creates a generator with the given seed.
func New(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// EncodedImage produces a simcv-format image file of textured noise plus
// a few bright regions (so detectors, thresholds, and contours have
// something to find), drawing the pixels straight into the file.
func (g *Gen) EncodedImage(rows, cols, channels int) []byte {
	file, data := simcv.NewImage(rows, cols, channels)
	for i := range data {
		data[i] = byte(g.rng.Intn(80))
	}
	// 2-4 bright rectangles.
	for b := 0; b < 2+g.rng.Intn(3); b++ {
		h, w := 2+g.rng.Intn(rows/3+1), 2+g.rng.Intn(cols/3+1)
		y, x := g.rng.Intn(rows-h+1), g.rng.Intn(cols-w+1)
		for r := y; r < y+h; r++ {
			for c := x; c < x+w; c++ {
				for z := 0; z < channels; z++ {
					data[(r*cols+c)*channels+z] = byte(200 + g.rng.Intn(56))
				}
			}
		}
	}
	return file
}

// OMRSheet draws an answer sheet: a grid of bubbles, some filled. answers
// records which option (0..options-1) is marked per question.
func (g *Gen) OMRSheet(questions, options, cell int) (img []byte, answers []int, rows, cols int) {
	rows = questions * cell
	cols = options * cell
	data := make([]byte, rows*cols)
	answers = make([]int, questions)
	for q := 0; q < questions; q++ {
		answers[q] = g.rng.Intn(options)
		for o := 0; o < options; o++ {
			if o != answers[q] {
				continue
			}
			// Fill the marked bubble.
			for r := q*cell + 1; r < (q+1)*cell-1; r++ {
				for c := o*cell + 1; c < (o+1)*cell-1; c++ {
					data[r*cols+c] = 255
				}
			}
		}
	}
	return data, answers, rows, cols
}

// EncodedOMRSheet produces an encoded OMR submission.
func (g *Gen) EncodedOMRSheet(questions, options, cell int) ([]byte, []int) {
	img, answers, rows, cols := g.OMRSheet(questions, options, cell)
	enc, err := simcv.EncodeImage(rows, cols, 1, img)
	if err != nil {
		panic(err)
	}
	return enc, answers
}

// VideoFrames queues n encoded frames on a camera device.
func (g *Gen) VideoFrames(cam *kernel.Camera, n, rows, cols, channels int) {
	for i := 0; i < n; i++ {
		cam.Push(g.EncodedImage(rows, cols, channels))
	}
}

// Dataset produces n float64 samples in [-1, 1).
func (g *Gen) Dataset(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.rng.Float64()*2 - 1
	}
	return out
}

// EncodedDataset produces a simflow dataset file.
func (g *Gen) EncodedDataset(n int) []byte {
	return simflow.EncodeDataset(g.Dataset(n))
}

// Model produces a torch model with the given layer sizes (weights in
// [-0.5, 0.5)), encoding each weight as it draws it.
func (g *Gen) Model(layerSizes ...int) []byte {
	return simtorch.BuildModel(len(layerSizes), func(i int) int { return layerSizes[i] },
		func(int, int) float64 { return g.rng.Float64() - 0.5 })
}

// Classifier produces a cascade classifier file tuned to fire on the
// bright regions EncodedImage draws.
func (g *Gen) Classifier(window int) []byte {
	return simcv.EncodeClassifier(150, window)
}

// Text produces n pseudo-words of lorem-style text.
func (g *Gen) Text(n int) []byte {
	words := []string{"data", "frame", "tensor", "grade", "answer", "pixel", "score", "mark", "sheet", "model"}
	out := make([]byte, 0, n*6)
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, words[g.rng.Intn(len(words))]...)
	}
	return out
}

// MNISTFile produces a dataset of n 8x8 samples in the simtorch MNIST
// format (flat float64s).
func (g *Gen) MNISTFile(n int) []byte {
	return simflow.EncodeDataset(g.Dataset(n * 64))
}

// FilePlan provisions a standard per-app input directory: count images
// under dir/inputs/, a classifier, a model, and a dataset. Returns the
// image paths. The model is sized for feature tensors of featN elements
// (layer 0 maps featN -> 4, layer 1 maps 4 -> 4).
func (g *Gen) FilePlan(k *kernel.Kernel, dir string, count, rows, cols, channels, featN int) []string {
	paths := make([]string, 0, count)
	for i := 0; i < count; i++ {
		p := fmt.Sprintf("%s/inputs/%03d.img", dir, i)
		k.FS.WriteFile(p, g.EncodedImage(rows, cols, channels))
		paths = append(paths, p)
	}
	k.FS.WriteFile(dir+"/classifier.xml", g.Classifier(8))
	if featN <= 0 {
		featN = 512
	}
	k.FS.WriteFile(dir+"/model.pt", g.Model(featN*4, 4*4))
	k.FS.WriteFile(dir+"/data.bin", g.EncodedDataset(256))
	return paths
}
