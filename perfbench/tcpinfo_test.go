package main

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// TestParseTCPInfoOffsets places known values at the documented
// struct tcp_info offsets and checks each lands in its field.
func TestParseTCPInfoOffsets(t *testing.T) {
	b := make([]byte, 232)
	le := binary.NativeEndian
	le.PutUint64(b[120:], 0x0102030405060708)
	le.PutUint64(b[128:], 0x1112131415161718)
	le.PutUint32(b[136:], 0x21222324)
	le.PutUint32(b[140:], 0x31323334)
	got, err := parseTCPInfo(b)
	if err != nil {
		t.Fatal(err)
	}
	want := tcpCounters{BytesAcked: 0x0102030405060708, BytesReceived: 0x1112131415161718, SegsOut: 0x21222324, SegsIn: 0x31323334}
	if got != want {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseTCPInfo(b[:143]); err == nil {
		t.Fatal("short tcp_info image accepted")
	}
}

// TestTCPInfoCountsKnownTransfer sends a known number of bytes over
// loopback and checks both ends' kernel counters agree with it.
func TestTCPInfoCountsKnownTransfer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 300_000
	got := make(chan error, 1)
	var server *net.TCPConn
	go func() {
		c, err := l.Accept()
		if err != nil {
			got <- err
			return
		}
		server = c.(*net.TCPConn)
		_, err = io.CopyN(io.Discard, c, n)
		got <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := c.(*net.TCPConn)
	defer client.Close()
	before, err := readTCPInfo(client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	recv, err := readTCPInfo(server)
	if err != nil {
		t.Fatal(err)
	}
	if recv.BytesReceived != n {
		t.Fatalf("receiver counted %d bytes, want %d", recv.BytesReceived, n)
	}
	// The last ACK may still be in flight when the reader finishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err := readTCPInfo(client)
		if err != nil {
			t.Fatal(err)
		}
		d := after.sub(before)
		if d.BytesAcked == n {
			if d.SegsOut == 0 || after.SegsIn == 0 {
				t.Fatalf("segment counters did not move: %+v", d)
			}
			if d.BytesReceived != 0 {
				t.Fatalf("sender counted %d received bytes on a one-way transfer", d.BytesReceived)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender counted %d acked bytes, want %d", d.BytesAcked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c tcpCounters) sub(o tcpCounters) tcpCounters {
	return tcpCounters{
		BytesAcked: c.BytesAcked - o.BytesAcked, BytesReceived: c.BytesReceived - o.BytesReceived,
		SegsOut: c.SegsOut - o.SegsOut, SegsIn: c.SegsIn - o.SegsIn,
	}
}
