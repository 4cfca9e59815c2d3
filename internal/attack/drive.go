package attack

import (
	"fmt"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/kernel"
)

// Drive feeds a crafted payload into cve's vulnerable API through c, the
// protected runtime or the unprotected monolith alike; host is the
// context the application code runs in, where argument objects are built.
// The payload travels the way that API takes its input: a crafted file, a
// pushed camera frame, an exact-length mat (the trigger parser reads the
// payload to the end of the object's bytes), or a trigger-carrying tensor
// padded with 0.5 (an invalid byte value, so the trigger scan stops exactly
// at the payload's end).
//
// Drive returns an error when it cannot place the payload at the site: the
// CVE's API is not one it knows, the host cannot build the argument
// object, a call that sets the site up fails, or the payload has more
// bytes than the site's fixed tensor has values. Errors of the vulnerable
// call itself are the expected outcome of a fired exploit and are dropped:
// what the payload did to its targets is the verdict.
func Drive(c core.Caller, host *framework.Ctx, cve CVE, payload []byte) error {
	k := host.K
	switch cve.API {
	case "cv.imread", "cv.cvLoad":
		k.FS.WriteFile("/data/evil.img", payload)
		_, _, _ = c.Call(cve.API, framework.Str("/data/evil.img"))
	case "cv.VideoCapture.read":
		cam := kernel.NewCamera("/dev/camera0")
		cam.Push(payload)
		k.AddCamera(cam)
		h, err := setup(c, cve, "cv.VideoCapture", framework.Int64(0))
		if err != nil {
			return err
		}
		_, _, _ = c.Call(cve.API, h)
	case "cv.CascadeClassifier.detectMultiScale":
		k.FS.WriteFile("/data/model.xml", simcv.EncodeClassifier(150, 4))
		mh, err := setup(c, cve, "cv.CascadeClassifier", framework.Str("/data/model.xml"))
		if err != nil {
			return err
		}
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return placeErr(cve, err)
		}
		_, _, _ = c.Call(cve.API, mh, framework.Obj(id))
	case "cv.warpPerspective":
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return placeErr(cve, err)
		}
		hid, ht, err := host.NewTensor(9)
		if err == nil {
			err = ht.SetValues([]float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
		}
		if err != nil {
			return placeErr(cve, err)
		}
		_, _, _ = c.Call(cve.API, framework.Obj(id), framework.Obj(hid))
	case "cv.equalizeHist", "cv.findContours":
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return placeErr(cve, err)
		}
		_, _, _ = c.Call(cve.API, framework.Obj(id))
	case "cv.imshow":
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return placeErr(cve, err)
		}
		_, _, _ = c.Call(cve.API, framework.Str("w"), framework.Obj(id))
	case "tf.nn.conv3d":
		id, err := triggerTensor(host, cve, payload, 3, 3, 3)
		if err != nil {
			return err
		}
		_, _, _ = c.Call(cve.API, framework.Obj(id))
	case "tf.nn.avg_pool", "tf.nn.max_pool":
		id, err := triggerTensor(host, cve, payload, 8, 8)
		if err != nil {
			return err
		}
		_, _, _ = c.Call(cve.API, framework.Obj(id))
	case "tf.matmul":
		id, err := triggerTensor(host, cve, payload, 8, 8)
		if err != nil {
			return err
		}
		_, _, _ = c.Call(cve.API, framework.Obj(id), framework.Obj(id))
	default:
		return fmt.Errorf("attack: %s: no way to drive a payload into %s", cve.ID, cve.API)
	}
	return nil
}

// placeErr reports an argument object the host could not build.
func placeErr(cve CVE, err error) error {
	return fmt.Errorf("attack: %s: cannot build the argument of %s: %w", cve.ID, cve.API, err)
}

// setup makes the call that prepares cve's site and returns its first
// result, the handle the vulnerable call takes.
func setup(c core.Caller, cve CVE, api string, args ...framework.Value) (framework.Value, error) {
	h, _, err := c.Call(api, args...)
	if err == nil && len(h) == 0 {
		err = fmt.Errorf("no handle returned")
	}
	if err != nil {
		return framework.Nil(), fmt.Errorf("attack: %s: %s before %s: %w", cve.ID, api, cve.API, err)
	}
	return h[0].Value(), nil
}

// triggerTensor builds a tensor whose leading values spell the trigger
// bytes, padded with 0.5 so the byte scan stops at the payload boundary.
// A payload with more bytes than the tensor has values cannot be placed.
func triggerTensor(ctx *framework.Ctx, cve CVE, payload []byte, shape ...int) (uint64, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(payload) > n {
		return 0, fmt.Errorf("attack: %s: a %d-byte payload does not fit the %d values of %s's %v tensor", cve.ID, len(payload), n, cve.API, shape)
	}
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return 0, placeErr(cve, err)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.5
	}
	for i, b := range payload {
		vals[i] = float64(b)
	}
	if err := t.SetValues(vals); err != nil {
		return 0, placeErr(cve, err)
	}
	return id, nil
}
