package simtorch

import "freepart.dev/freepart/internal/framework"

// newOut allocates a result tensor holding vals, encoded with SetValues:
// how a kernel stored its output before kernels encoded their outputs in
// place (fillOut). decodedForward, FuzzModelForward's reference, stores
// through it.
func newOut(ctx *framework.Ctx, shape []int, vals []float64) (framework.Value, error) {
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return framework.Nil(), err
	}
	if err := t.SetValues(vals); err != nil {
		return framework.Nil(), err
	}
	return framework.Obj(id), nil
}
