package gcf

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/simnet"
)

func pair() (*Endpoint, *Endpoint, func()) {
	a, b := simnet.Pipe(simnet.Unlimited())
	ea := NewEndpoint(a, true)
	eb := NewEndpoint(b, false)
	return ea, eb, func() {
		if err := ea.Close(); err != nil {
			_ = err
		}
		if err := eb.Close(); err != nil {
			_ = err
		}
	}
}

// pipePair connects two endpoints over a synchronous, unbuffered
// net.Pipe: a write completes only once the peer's read loop takes it.
func pipePair(t *testing.T) (client, server *Endpoint) {
	t.Helper()
	c, s := net.Pipe()
	client, server = NewEndpoint(c, true), NewEndpoint(s, false)
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

func TestMessagesPreserveOrder(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()

	const n = 500
	got := make(chan []byte, n)
	eb.Start(func(msg []byte) { got <- msg }, nil)
	ea.Start(func([]byte) {}, nil)

	for i := 0; i < n; i++ {
		if err := ea.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case msg := <-got:
			want := fmt.Sprintf("msg-%04d", i)
			if string(msg) != want {
				t.Fatalf("message %d = %q, want %q (order broken)", i, msg, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at message %d", i)
		}
	}
}

func TestBidirectionalMessages(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	fromA := make(chan []byte, 1)
	fromB := make(chan []byte, 1)
	ea.Start(func(m []byte) { fromB <- m }, nil)
	eb.Start(func(m []byte) { fromA <- m }, nil)
	if err := ea.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := eb.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if string(<-fromA) != "ping" || string(<-fromB) != "pong" {
		t.Fatal("bidirectional exchange failed")
	}
}

func TestStreamBulkTransfer(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)

	// The client announces the stream ID in a message; the server reads
	// the announced stream — the dOpenCL bulk-data pattern.
	payload := make([]byte, 3<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	result := make(chan []byte, 1)
	eb.Start(func(msg []byte) {
		id := uint32(msg[0])<<24 | uint32(msg[1])<<16 | uint32(msg[2])<<8 | uint32(msg[3])
		s := eb.Stream(id)
		data, err := io.ReadAll(s)
		if err != nil {
			t.Errorf("stream read: %v", err)
		}
		result <- data
	}, nil)

	s := ea.OpenStream()
	id := s.ID()
	if err := ea.Send([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-result:
		if !bytes.Equal(data, payload) {
			t.Fatal("stream payload corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream transfer timeout")
	}
}

func TestStreamsInterleaveWithMessages(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)
	var msgCount sync.WaitGroup
	msgCount.Add(50)
	eb.Start(func(msg []byte) {
		if string(msg[:3]) == "msg" {
			msgCount.Done()
		}
	}, nil)

	// Bulk stream and small messages share the connection; messages must
	// keep flowing while the stream is active.
	s := ea.OpenStream()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1<<20)
		for i := 0; i < 8; i++ {
			if _, err := s.Write(buf); err != nil {
				t.Errorf("stream write: %v", err)
				return
			}
		}
		if err := s.CloseWrite(); err != nil {
			t.Errorf("close write: %v", err)
		}
	}()
	for i := 0; i < 50; i++ {
		if err := ea.Send([]byte("msg!")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		msgCount.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("messages starved by bulk stream")
	}
	wg.Wait()
	// Drain the stream server-side.
	data, err := io.ReadAll(eb.Stream(s.ID()))
	if err != nil || len(data) != 8<<20 {
		t.Fatalf("stream drain: %d bytes, %v", len(data), err)
	}
}

func TestStreamIDAllocation(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	s1 := ea.OpenStream()
	s2 := ea.OpenStream()
	s3 := eb.OpenStream()
	if s1.ID()%2 != 1 || s2.ID()%2 != 1 {
		t.Errorf("client stream IDs must be odd: %d %d", s1.ID(), s2.ID())
	}
	if s3.ID()%2 != 0 {
		t.Errorf("server stream IDs must be even: %d", s3.ID())
	}
	if s1.ID() == s2.ID() {
		t.Error("duplicate stream IDs")
	}
}

func TestCloseFailsPendingReads(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)
	closed := make(chan error, 1)
	eb.Start(func([]byte) {}, func(err error) { closed <- err })

	s := eb.Stream(99)
	readErr := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 16))
		readErr <- err
	}()
	if err := ea.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("pending stream read survived close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending stream read not unblocked")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("onClose not invoked")
	}
	if err := ea.Send([]byte("late")); err == nil {
		t.Fatal("send after close succeeded")
	}
	select {
	case <-ea.Done():
	default:
		t.Fatal("Done channel not closed")
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	ea, _, cleanup := pair()
	defer cleanup()
	if err := ea.Send(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestConcurrentSenders(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)
	var received sync.WaitGroup
	const senders, perSender = 8, 100
	received.Add(senders * perSender)
	eb.Start(func(msg []byte) { received.Done() }, nil)

	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < perSender; i++ {
				if err := ea.Send([]byte{byte(s), byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		received.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent sends lost messages")
	}
}

// TestMessageCopyOnSend: Send hands the slice back on return, so a
// sender scribbling over it must not change a message in flight, and
// messages arrive in send order.
func TestMessageCopyOnSend(t *testing.T) {
	client, server := pipePair(t)
	msgs := make(chan []byte, 10)
	server.Start(func(msg []byte) { msgs <- msg }, nil)
	client.Start(func([]byte) {}, nil)
	buf := make([]byte, 7)
	for i := 0; i < 10; i++ {
		copy(buf, "hello-")
		buf[6] = '0' + byte(i)
		if err := client.Send(buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "XXXXXXX")
	}
	for i := 0; i < 10; i++ {
		select {
		case m := <-msgs:
			if want := "hello-" + string(rune('0'+i)); string(m) != want {
				t.Fatalf("message %d: got %q want %q", i, m, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

// TestStreamWriteCopyOnSend: Stream.Write, like Send, returns ownership
// of the slice on return.
func TestStreamWriteCopyOnSend(t *testing.T) {
	client, server := pipePair(t)
	server.Start(func([]byte) {}, nil)
	client.Start(func([]byte) {}, nil)
	st := client.OpenStream()
	data := bytes.Repeat([]byte{0xAB}, 10_000)
	if _, err := st.Write(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	ps := server.Stream(st.ID())
	got, err := io.ReadAll(ps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 10_000)) {
		t.Fatal("a write-after-send mutation reached the peer")
	}
	ps.Release()
	st.Release()
}

// TestWriteOwnedReleaseOnShutdown: owned frames that can never be
// flushed — the peer goes away while one batch is blocked on the wire and
// another waits behind it — still hand their buffers back, exactly once.
func TestWriteOwnedReleaseOnShutdown(t *testing.T) {
	client, server := pipePair(t)
	client.Start(func([]byte) {}, nil)
	// The server is never started: nothing reads the pipe, so the write
	// of the first payload (one frame, hence one batch) blocks.
	st := client.OpenStream()
	var inFlight, queued atomic.Int32
	if err := st.WriteOwned(make([]byte, maxFrame), func() { inFlight.Add(1) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		client.wmu.Lock()
		taken := client.wpend == 0
		client.wmu.Unlock()
		if taken {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write loop never took the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.WriteOwned(make([]byte, maxFrame*2), func() { queued.Add(1) }); err != nil {
		t.Fatal(err)
	}
	server.Close()
	// The write loop exits only after its shutdown drain has run every
	// pending release.
	select {
	case <-client.wdone:
	case <-time.After(5 * time.Second):
		t.Fatal("client write loop survived its peer's close")
	}
	if a, b := inFlight.Load(), queued.Load(); a != 1 || b != 1 {
		t.Fatalf("releases after shutdown: in-flight payload %d, queued payload %d, want 1 each", a, b)
	}
}
