package simtorch

import (
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/tensors"
	"freepart.dev/freepart/internal/object"
)

// tensorArg resolves args[i] to a tensor, as the kernels resolve their
// operands (tensors.Arg). decodedForward, FuzzModelForward's reference,
// resolves its input through it.
func tensorArg(ctx *framework.Ctx, args []framework.Value, i int) (*object.Tensor, error) {
	return tensors.Arg(ctx, Name, args, i)
}

// newOut allocates a result tensor holding vals, encoded with SetValues:
// how a kernel stored its output before kernels encoded their outputs in
// place (tensors.Out). decodedForward stores through it.
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
