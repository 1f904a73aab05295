package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// Byte offsets of the struct tcp_info fields the benchmark reads
// (linux/tcp.h). They sit past the prefix Go's syscall.TCPInfo covers,
// so the struct is read as raw bytes.
const (
	tcpiBytesAcked    = 120 // __u64 tcpi_bytes_acked
	tcpiBytesReceived = 128 // __u64 tcpi_bytes_received
	tcpiSegsOut       = 136 // __u32 tcpi_segs_out
	tcpiSegsIn        = 140 // __u32 tcpi_segs_in
	tcpiMinLen        = 144
)

// tcpCounters are a socket's cumulative kernel counters: payload bytes
// sent and acknowledged by the peer, payload bytes received, and
// segments out and in (pure ACKs included).
type tcpCounters struct {
	BytesAcked, BytesReceived uint64
	SegsOut, SegsIn           uint64
}

// parseTCPInfo decodes the counters from a raw struct tcp_info image.
func parseTCPInfo(b []byte) (tcpCounters, error) {
	if len(b) < tcpiMinLen {
		return tcpCounters{}, fmt.Errorf("tcp_info is %d bytes, need %d: kernel too old for byte counters", len(b), tcpiMinLen)
	}
	le := binary.NativeEndian
	return tcpCounters{
		BytesAcked:    le.Uint64(b[tcpiBytesAcked:]),
		BytesReceived: le.Uint64(b[tcpiBytesReceived:]),
		SegsOut:       uint64(le.Uint32(b[tcpiSegsOut:])),
		SegsIn:        uint64(le.Uint32(b[tcpiSegsIn:])),
	}, nil
}

// readTCPInfo reads TCP_INFO from the connection's socket. It goes
// through SyscallConn, so the connection stays the plain *net.TCPConn
// the program writes to (gcf's writev path is untouched).
func readTCPInfo(c *net.TCPConn) (tcpCounters, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return tcpCounters{}, err
	}
	var buf [256]byte
	n := uint32(len(buf))
	var errno syscall.Errno
	cerr := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd,
			syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&n)), 0)
	})
	if cerr != nil {
		return tcpCounters{}, cerr
	}
	if errno != 0 {
		return tcpCounters{}, fmt.Errorf("getsockopt TCP_INFO: %w", errno)
	}
	return parseTCPInfo(buf[:n])
}
