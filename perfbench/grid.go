package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dopencl/internal/cl"
	"dopencl/internal/darray"
	"dopencl/internal/device"
	"dopencl/internal/native"
)

// The jacobi and cg workloads run on a small darray grid split across
// two daemons.
const gridW, gridH = 64, 64

// newGrid creates a context over devs and a grid compiling src on it.
func newGrid(plat cl.Platform, devs []cl.Device, src string, tr *tracer, rep int64) (cl.Context, *darray.Grid, error) {
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		return nil, nil, err
	}
	var g *darray.Grid
	err = tr.do("darray.grid", -1, rep, func() (err error) {
		g, err = darray.NewGrid(ctx, devs, src, gridW, gridH)
		return err
	})
	return ctx, g, err
}

// nativeDevices is an in-process native platform with n devices
// configured like the stack's, for the native.unit_ms probes.
func nativeDevices(n int) (cl.Platform, []cl.Device, error) {
	var cfgs []device.Config
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, cpuDevice(fmt.Sprintf("cpu%d", i)))
	}
	plat := native.NewPlatform("native-probe", "perfbench", cfgs)
	devs, err := plat.Devices(cl.DeviceTypeAll)
	return plat, devs, err
}

// scatter uploads vals into a inside a set-up span.
func scatter(tr *tracer, rep int64, a *darray.Array, vals []float32) error {
	return tr.do("darray.scatter", -1, rep, func() error {
		return bounded("Array.Scatter", func() error { return a.Scatter(vals) })
	})
}

// haloSurfaceBytes is what one stencil step must move between
// partitions at minimum: the halo rows each partition reads from its
// neighbours.
func haloSurfaceBytes(g *darray.Grid, h darray.Halo) float64 {
	return float64((len(g.Parts())-1)*(h.Lo+h.Hi)*gridW) * 4
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func randomFloats(rng *rand.Rand, n int) []float32 {
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = rng.Float32()
	}
	return vs
}
