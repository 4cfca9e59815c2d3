package attack

import (
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
// at the payload's end). Call errors are the expected outcome of a fired
// exploit and are dropped: what the payload did to its targets is the
// verdict.
func Drive(c core.Caller, host *framework.Ctx, cve CVE, payload []byte) {
	k := host.K
	switch cve.API {
	case "cv.imread", "cv.cvLoad":
		k.FS.WriteFile("/data/evil.img", payload)
		_, _, _ = c.Call(cve.API, framework.Str("/data/evil.img"))
	case "cv.VideoCapture.read":
		cam := kernel.NewCamera("/dev/camera0")
		cam.Push(payload)
		k.AddCamera(cam)
		h, _, err := c.Call("cv.VideoCapture", framework.Int64(0))
		if err != nil || len(h) == 0 {
			return
		}
		_, _, _ = c.Call("cv.VideoCapture.read", h[0].Value())
	case "cv.CascadeClassifier.detectMultiScale":
		k.FS.WriteFile("/data/model.xml", simcv.EncodeClassifier(150, 4))
		mh, _, err := c.Call("cv.CascadeClassifier", framework.Str("/data/model.xml"))
		if err != nil || len(mh) == 0 {
			return
		}
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return
		}
		_, _, _ = c.Call(cve.API, mh[0].Value(), framework.Obj(id))
	case "cv.warpPerspective":
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return
		}
		hid, ht, err := host.NewTensor(9)
		if err != nil {
			return
		}
		_ = ht.SetValues([]float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
		_, _, _ = c.Call(cve.API, framework.Obj(id), framework.Obj(hid))
	case "cv.equalizeHist", "cv.findContours":
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return
		}
		_, _, _ = c.Call(cve.API, framework.Obj(id))
	case "cv.imshow":
		id, _, err := host.NewMatFromBytes(1, len(payload), 1, payload)
		if err != nil {
			return
		}
		_, _, _ = c.Call(cve.API, framework.Str("w"), framework.Obj(id))
	case "tf.nn.conv3d":
		if id, ok := triggerTensor(host, payload, 3, 3, 3); ok {
			_, _, _ = c.Call(cve.API, framework.Obj(id))
		}
	case "tf.nn.avg_pool", "tf.nn.max_pool":
		if id, ok := triggerTensor(host, payload, 8, 8); ok {
			_, _, _ = c.Call(cve.API, framework.Obj(id))
		}
	case "tf.matmul":
		if id, ok := triggerTensor(host, payload, 8, 8); ok {
			_, _, _ = c.Call(cve.API, framework.Obj(id), framework.Obj(id))
		}
	}
}

// triggerTensor builds a tensor whose leading values spell the trigger
// bytes, padded with 0.5 so the byte scan stops at the payload boundary.
func triggerTensor(ctx *framework.Ctx, payload []byte, shape ...int) (uint64, bool) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(payload) > n {
		return 0, false
	}
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return 0, false
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.5
	}
	for i, b := range payload {
		vals[i] = float64(b)
	}
	if err := t.SetValues(vals); err != nil {
		return 0, false
	}
	return id, true
}
