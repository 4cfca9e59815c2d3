package all_test

import (
	"errors"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
)

// TestUnreadableOperandFaults gives each API that reads tensor elements an
// operand on a page protected PermNone: the read must surface its
// *mem.Fault instead of computing over zeros and reporting success, or
// reporting only the fault of a store that follows it.
func TestUnreadableOperandFaults(t *testing.T) {
	reg := all.Registry()
	cases := []struct {
		api string
		// args builds the operands; lock is the one to protect.
		args func(t *testing.T, ctx *framework.Ctx) (args []framework.Value, lock framework.Value)
	}{
		{"cv.BFMatcher.match", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			a, b := tensor(t, ctx, 2, 3), tensor(t, ctx, 4, 3)
			return []framework.Value{a, b}, b
		}},
		{"cv.remap", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			flow := tensor(t, ctx, 4, 4, 2)
			return []framework.Value{mat(t, ctx, 4, 4, 1), flow}, flow
		}},
		{"cv.compareHist", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			a, b := tensor(t, ctx, 8), tensor(t, ctx, 8)
			return []framework.Value{a, b}, a
		}},
		{"cv.drawContours", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			c := tensor(t, ctx, 1, 5)
			return []framework.Value{mat(t, ctx, 8, 8, 1), c}, c
		}},
		{"cv.boundingRect", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			c := tensor(t, ctx, 2, 5)
			return []framework.Value{c, framework.Int64(1)}, c
		}},
		{"cv.contourArea", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			c := tensor(t, ctx, 2, 5)
			return []framework.Value{c, framework.Int64(1)}, c
		}},
		{"cv.getPerspectiveTransform", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			src, dst := tensor(t, ctx, 8), tensor(t, ctx, 8)
			return []framework.Value{src, dst}, dst
		}},
		{"cv.getAffineTransform", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			src, dst := tensor(t, ctx, 6), tensor(t, ctx, 6)
			return []framework.Value{src, dst}, src
		}},
		{"cv.writeOpticalFlow", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			flow := tensor(t, ctx, 3, 2, 2)
			return []framework.Value{framework.Str("/f.flo"), flow}, flow
		}},
		{"cv.KalmanFilter.predict", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			st := tensor(t, ctx, 4)
			return []framework.Value{st}, st
		}},
		{"cv.KalmanFilter.correct", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			st := tensor(t, ctx, 4)
			return []framework.Value{st, framework.Float64(1), framework.Float64(2)}, st
		}},
		{"cv.filter2D", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			k := tensor(t, ctx, 3, 3)
			return []framework.Value{mat(t, ctx, 4, 4, 1), k}, k
		}},
		{"cv.warpPerspective", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			h := tensor(t, ctx, 9)
			return []framework.Value{mat(t, ctx, 4, 4, 1), h}, h
		}},
		{"tf.estimator.DNNClassifier.train", func(t *testing.T, ctx *framework.Ctx) ([]framework.Value, framework.Value) {
			st := tensor(t, ctx, 2)
			return []framework.Value{st, tensor(t, ctx, 4)}, st
		}},
	}
	for _, tc := range cases {
		t.Run(tc.api, func(t *testing.T) {
			k := kernel.New()
			ctx := framework.NewCtx(k, k.Spawn("reader"))
			args, lock := tc.args(t, ctx)
			o, err := ctx.Obj(lock)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.P.Space().ProtectRegion(o.Region(), mem.PermNone); err != nil {
				t.Fatal(err)
			}
			out, err := reg.MustGet(tc.api).Exec(ctx, args)
			if f := new(*mem.Fault); !errors.As(err, f) || (*f).Kind != mem.AccessRead {
				t.Fatalf("got %v, %v; want a read *mem.Fault", out, err)
			}
		})
	}
}

// tensor allocates a tensor whose i-th element is i+1.
func tensor(t *testing.T, ctx *framework.Ctx, shape ...int) framework.Value {
	t.Helper()
	id, ten, err := ctx.NewTensor(shape...)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, ten.Len())
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if err := ten.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

// mat allocates a zeroed image.
func mat(t *testing.T, ctx *framework.Ctx, rows, cols, ch int) framework.Value {
	t.Helper()
	id, _, err := ctx.NewMat(rows, cols, ch)
	if err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}
