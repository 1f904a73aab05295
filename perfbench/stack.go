package main

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/devmgr"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
)

// connRole says which side of which link a tracked connection is.
type connRole int

const (
	roleClient  connRole = iota // client → daemon, dialed by a client platform
	rolePeer                    // daemon → daemon, dialed through PeerDial
	roleControl                 // any link to or from the device manager
	roleAccept                  // daemon side of a client or peer link
)

// wire tracks every TCP connection of one stack so its kernel counters
// can be read and every link closed at teardown. Connections are kept
// as the *net.TCPConn handed to the program, never wrapped.
type wire struct {
	mu    sync.Mutex
	conns []trackedConn
}

type trackedConn struct {
	role connRole
	c    *net.TCPConn
}

func (w *wire) add(role connRole, c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		w.mu.Lock()
		w.conns = append(w.conns, trackedConn{role, tc})
		w.mu.Unlock()
	}
}

// wireTotals sums the counters of the stack's links, read from the
// dialing side only so no byte is counted twice: c2d and d2c on client
// links, both directions of every peer link.
type wireTotals struct {
	C2DBytes, D2CBytes, PeerBytes float64
	C2DSegs, D2CSegs, PeerSegs    float64
}

func (t wireTotals) sub(o wireTotals) wireTotals {
	return wireTotals{
		t.C2DBytes - o.C2DBytes, t.D2CBytes - o.D2CBytes, t.PeerBytes - o.PeerBytes,
		t.C2DSegs - o.C2DSegs, t.D2CSegs - o.D2CSegs, t.PeerSegs - o.PeerSegs,
	}
}

func (t wireTotals) add(o wireTotals) wireTotals {
	return wireTotals{
		t.C2DBytes + o.C2DBytes, t.D2CBytes + o.D2CBytes, t.PeerBytes + o.PeerBytes,
		t.C2DSegs + o.C2DSegs, t.D2CSegs + o.D2CSegs, t.PeerSegs + o.PeerSegs,
	}
}

// totals reads TCP_INFO on every client and peer link. A link closed
// since it was opened drops out of the sum; the stack closes none while
// it is measured.
func (w *wire) totals() wireTotals {
	w.mu.Lock()
	conns := append([]trackedConn(nil), w.conns...)
	w.mu.Unlock()
	var t wireTotals
	for _, tc := range conns {
		if tc.role != roleClient && tc.role != rolePeer {
			continue
		}
		c, err := readTCPInfo(tc.c)
		if err != nil {
			continue
		}
		if tc.role == roleClient {
			t.C2DBytes += float64(c.BytesAcked)
			t.D2CBytes += float64(c.BytesReceived)
			t.C2DSegs += float64(c.SegsOut)
			t.D2CSegs += float64(c.SegsIn)
		} else {
			t.PeerBytes += float64(c.BytesAcked + c.BytesReceived)
			t.PeerSegs += float64(c.SegsOut + c.SegsIn)
		}
	}
	return t
}

func (w *wire) closeAll() {
	w.mu.Lock()
	conns := w.conns
	w.conns = nil
	w.mu.Unlock()
	for _, tc := range conns {
		_ = tc.c.Close() // teardown: the link may already be gone
	}
}

// trackingListener records every accepted connection and returns it
// unwrapped.
type trackingListener struct {
	net.Listener
	w    *wire
	role connRole
}

func (l trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.w.add(l.role, c)
	}
	return c, err
}

// stack is one in-process dOpenCL deployment on loopback TCP: a device
// manager and daemons with ExecReal devices (one VM worker each) and the
// peer data plane up. Clients obtain devices through manager leases.
type stack struct {
	wire    *wire
	mgr     *devmgr.Manager
	mgrAddr string
	daemons []*daemon.Daemon
	lns     []net.Listener
	leases  []*client.Lease
	serves  sync.WaitGroup
}

// cpuDevice is the device every daemon exposes: a real-execution CPU
// whose kernels run on one VM worker.
func cpuDevice(name string) device.Config {
	cfg := device.TestCPU(name)
	cfg.Workers = 1
	return cfg
}

func (s *stack) listen(role connRole) (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s.lns = append(s.lns, l)
	return trackingListener{l, s.wire, role}, l.Addr().String(), nil
}

func (s *stack) serve(fn func() error) {
	s.serves.Add(1)
	go func() {
		defer s.serves.Done()
		_ = fn() // returns once teardown closes the listener
	}()
}

func (s *stack) dial(role connRole) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		r := role
		if addr == s.mgrAddr {
			r = roleControl
		}
		s.wire.add(r, c)
		return c, nil
	}
}

// startStack starts the manager and one daemon per entry of
// devicesPerDaemon, each registered with the manager.
func startStack(devicesPerDaemon ...int) (_ *stack, err error) {
	s := &stack{wire: &wire{}, mgr: devmgr.New()}
	defer func() {
		if err != nil {
			_ = s.close() // the start error is the one to report
		}
	}()
	ml, addr, err := s.listen(roleControl)
	if err != nil {
		return nil, err
	}
	s.mgrAddr = addr
	s.serve(func() error { return s.mgr.Serve(ml) })
	for i, n := range devicesPerDaemon {
		var devs []device.Config
		for j := 0; j < n; j++ {
			devs = append(devs, cpuDevice(fmt.Sprintf("cpu%d.%d", i, j)))
		}
		cln, caddr, err := s.listen(roleAccept)
		if err != nil {
			return nil, err
		}
		pl, paddr, err := s.listen(roleAccept)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("node%d", i)
		d, err := daemon.New(daemon.Config{
			Name:     name,
			Platform: native.NewPlatform("native-"+name, "perfbench", devs),
			Managed:  true,
			PeerAddr: paddr,
			PeerDial: s.dial(rolePeer),
		})
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		s.serve(func() error { return d.Serve(cln) })
		s.serve(func() error { return d.ServePeers(pl) })
		mc, err := s.dial(roleControl)(s.mgrAddr)
		if err != nil {
			return nil, err
		}
		if err := d.AttachManager(mc, caddr); err != nil {
			return nil, fmt.Errorf("register %s with the device manager: %w", name, err)
		}
	}
	return s, nil
}

// lease opens a client platform and leases n CPU devices through the
// device manager (the paper's Section IV request path).
func (s *stack) lease(name string, n int, tr *tracer, unit int64) (*client.Platform, []cl.Device, error) {
	plat := client.NewPlatform(client.Options{Dialer: s.dial(roleClient), ClientName: name})
	var lease *client.Lease
	err := tr.do("devmgr.lease", -1, unit, func() (err error) {
		lease, err = plat.RequestFromManager(client.ManagerConfig{
			Manager:  s.mgrAddr,
			Tenant:   name,
			Requests: []protocol.DeviceRequest{{Count: n, Type: cl.DeviceTypeCPU}},
		})
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("lease %d devices: %w", n, err)
	}
	s.leases = append(s.leases, lease)
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		return nil, nil, err
	}
	if len(devs) != n {
		return nil, nil, fmt.Errorf("lease granted %d devices, asked for %d", len(devs), n)
	}
	return plat, devs, nil
}

// live is the part every workload shares: its current stack and the
// context the build probe uses.
type live struct {
	st  *stack
	ctx cl.Context
}

func (l *live) stack() *stack       { return l.st }
func (l *live) context() cl.Context { return l.ctx }

// teardown stops the current stack, if any.
func (l *live) teardown() error {
	if l.st == nil {
		return nil
	}
	err := l.st.close()
	l.st, l.ctx = nil, nil
	return err
}

// close releases the leases and closes every listener and link, then
// waits for the accept loops to return.
func (s *stack) close() error {
	var errs []error
	for _, l := range s.leases {
		errs = append(errs, l.Release())
	}
	s.mgr.Close()
	for _, l := range s.lns {
		_ = l.Close() // a listener the accept loop already lost is fine
	}
	s.wire.closeAll()
	s.serves.Wait()
	return errors.Join(errs...)
}
