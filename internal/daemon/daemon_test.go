package daemon

import (
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

func testDaemon(t *testing.T, managed bool) *Daemon {
	t.Helper()
	plat := native.NewPlatform("p", "v", []device.Config{
		device.TestCPU("cpu0"), device.TestGPU("gpu0"),
	})
	d, err := New(Config{Name: "srv", Platform: plat, Managed: managed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("daemon without platform accepted")
	}
	d := testDaemon(t, false)
	if d.Name() != "srv" || len(d.Devices()) != 2 {
		t.Fatalf("daemon = %q with %d devices", d.Name(), len(d.Devices()))
	}
	recs := d.Records()
	if len(recs) != 2 || recs[0].UnitID != 0 || recs[1].UnitID != 1 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestLeaseFiltering(t *testing.T) {
	d := testDaemon(t, true)
	// Unknown auth ID is rejected outright.
	if _, err := d.visibleRecords("bogus"); cl.CodeOf(err) != cl.InvalidServer {
		t.Fatalf("unknown auth: %v", err)
	}
	// Lease on unit 1 exposes only that device.
	d.Allow("lease-a", []uint32{1})
	recs, err := d.visibleRecords("lease-a")
	if err != nil || len(recs) != 1 || recs[0].UnitID != 1 {
		t.Fatalf("filtered records = %+v, %v", recs, err)
	}
	if !d.HasLease("lease-a") {
		t.Fatal("lease not tracked")
	}
	d.Revoke("lease-a")
	if d.HasLease("lease-a") {
		t.Fatal("revoked lease still tracked")
	}
	if _, err := d.visibleRecords("lease-a"); err == nil {
		t.Fatal("revoked auth still accepted")
	}
}

func TestUnmanagedExposesEverything(t *testing.T) {
	d := testDaemon(t, false)
	recs, err := d.visibleRecords("anything")
	if err != nil || len(recs) != 2 {
		t.Fatalf("unmanaged visibility: %+v, %v", recs, err)
	}
}

// rawSession drives the daemon's wire protocol directly, bypassing the
// client driver — protocol-level tests.
type rawSession struct {
	ep   *gcf.Endpoint
	resp chan protocol.Envelope
}

func newRawSession(t *testing.T, d *Daemon) *rawSession {
	t.Helper()
	a, b := simnet.Pipe(simnet.Unlimited())
	d.ServeConn(b)
	rs := &rawSession{
		ep:   gcf.NewEndpoint(a, true),
		resp: make(chan protocol.Envelope, 16),
	}
	rs.ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err == nil && env.Class == protocol.ClassResponse {
			rs.resp <- env
		}
	}, nil)
	return rs
}

func (rs *rawSession) call(t *testing.T, id uint32, typ protocol.MsgType, fill func(*protocol.Writer)) protocol.Envelope {
	t.Helper()
	w := protocol.NewWriter()
	if fill != nil {
		fill(w)
	}
	if err := rs.ep.Send(protocol.EncodeEnvelope(protocol.ClassRequest, id, typ, w)); err != nil {
		t.Fatal(err)
	}
	return <-rs.resp
}

func TestProtocolObjectErrors(t *testing.T) {
	d := testDaemon(t, false)
	rs := newRawSession(t, d)
	defer rs.ep.Close()

	// Operations against unknown object IDs return the right codes.
	env := rs.call(t, 1, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(100) // queue ID
		w.U64(999) // unknown context
		w.U64(0)
	})
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidContext {
		t.Fatal("unknown context not rejected")
	}
	env = rs.call(t, 2, protocol.MsgBuildProgram, func(w *protocol.Writer) {
		w.U64(999)
		w.String("")
	})
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidProgram {
		t.Fatal("unknown program not rejected")
	}
	env = rs.call(t, 3, protocol.MsgFinish, func(w *protocol.Writer) {
		w.U64(999)
	})
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidCommandQueue {
		t.Fatal("unknown queue not rejected")
	}
	// Unknown message types answer InvalidOperation rather than hanging.
	env = rs.call(t, 4, protocol.MsgType(999), nil)
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidOperation {
		t.Fatal("unknown message type not rejected")
	}
	// A context created on a bad device unit fails cleanly.
	env = rs.call(t, 5, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(50)
		w.U64s([]uint64{7})
	})
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidDevice {
		t.Fatal("bad device unit not rejected")
	}
}

func TestProtocolHappyPath(t *testing.T) {
	d := testDaemon(t, false)
	rs := newRawSession(t, d)
	defer rs.ep.Close()

	env := rs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		w.String("raw-client")
		w.String("")
	})
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("hello failed")
	}
	if name := env.Body.String(); name != "srv" {
		t.Fatalf("server name = %q", name)
	}
	if recs := protocol.GetDeviceRecords(env.Body); len(recs) != 2 {
		t.Fatalf("hello records = %+v", recs)
	}

	env = rs.call(t, 2, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(10)
		w.U64s([]uint64{0})
	})
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("create context failed")
	}
	env = rs.call(t, 3, protocol.MsgGetServerInfo, nil)
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("server info failed")
	}
	if env.Body.String() != "srv" || env.Body.Bool() || env.Body.U32() != 2 {
		t.Fatal("server info content wrong")
	}
	// Releases are idempotent even for unknown IDs.
	env = rs.call(t, 4, protocol.MsgReleaseContext, func(w *protocol.Writer) {
		w.U64(10)
	})
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("release failed")
	}
}

// TestRequestModeEnqueueRejected: the enqueue commands and Flush exist
// only as one-way commands. Sent as requests — even valid ones — they
// get InvalidOperation, and the session keeps serving afterwards.
func TestRequestModeEnqueueRejected(t *testing.T) {
	d := testDaemon(t, false)
	rs := newRawSession(t, d)
	defer rs.ep.Close()

	ok := func(env protocol.Envelope, what string) {
		t.Helper()
		if code := cl.ErrorCode(env.Body.I32()); code != cl.Success {
			t.Fatalf("%s: %v", what, code)
		}
	}
	ok(rs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		w.String("raw-client")
		w.String("")
	}), "hello")
	ok(rs.call(t, 2, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(10)
		w.U64s([]uint64{0})
	}), "create context")
	ok(rs.call(t, 3, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(20)
		w.U64(10)
		w.U64(0)
	}), "create queue")
	ok(rs.call(t, 4, protocol.MsgCreateProgram, func(w *protocol.Writer) {
		w.U64(30)
		w.U64(10)
		w.String("kernel void nop() { }")
	}), "create program")
	ok(rs.call(t, 5, protocol.MsgBuildProgram, func(w *protocol.Writer) {
		w.U64(30)
		w.String("")
	}), "build program")
	ok(rs.call(t, 6, protocol.MsgCreateKernel, func(w *protocol.Writer) {
		w.U64(40)
		w.U64(30)
		w.String("nop")
	}), "create kernel")

	env := rs.call(t, 7, protocol.MsgEnqueueKernel, func(w *protocol.Writer) {
		w.U64(20)        // queue
		w.U64(40)        // kernel
		w.Ints(nil)      // global offset
		w.Ints([]int{1}) // global size
		w.Ints(nil)      // local size
		w.U64(0)         // event
		w.U64s(nil)      // wait list
	})
	if code := cl.ErrorCode(env.Body.I32()); code != cl.InvalidOperation {
		t.Fatalf("request-class EnqueueKernel answered %v, want InvalidOperation", code)
	}
	env = rs.call(t, 8, protocol.MsgFlush, func(w *protocol.Writer) { w.U64(20) })
	if code := cl.ErrorCode(env.Body.I32()); code != cl.InvalidOperation {
		t.Fatalf("request-class Flush answered %v, want InvalidOperation", code)
	}

	ok(rs.call(t, 9, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(21)
		w.U64(10)
		w.U64(0)
	}), "create queue after rejected requests")
	w := protocol.NewWriter()
	w.U64(21) // queue
	w.U64(50) // event
	if err := rs.ep.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, protocol.MsgEnqueueMarker, w)); err != nil {
		t.Fatal(err)
	}
	ok(rs.call(t, 10, protocol.MsgFinish, func(w *protocol.Writer) { w.U64(21) }), "finish after one-way marker")
}
