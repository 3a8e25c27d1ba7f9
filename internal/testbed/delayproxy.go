package testbed

import (
	"net"
	"time"
)

// DelayProxy listens on an ephemeral loopback port and forwards TCP
// bytes to target in both directions with a fixed one-way delay,
// emulating the WAN round trip of the paper's hybrid deployment
// (remote producers/consumers on edge or HPC resources, fabric in the
// cloud). It is what makes latency-sensitive transport comparisons
// meaningful on a single host: on loopback there is no round trip to
// hide, so pipelined, prefetching and streaming clients all converge
// on per-op CPU cost — the regime the transport was built for is the
// remote one. It is the repository's one delay emulator: the CI
// benchmark gates (perf_test.go), the scoreboard (bench/) and the
// full-stack test place it in front of served brokers through
// clusternet.Options.Advertise, so they all measure the same link.
// stop closes the listener; established relays drain on their own.
func DelayProxy(target string, oneWay time.Duration) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go func() {
		for {
			src, err := ln.Accept()
			if err != nil {
				return
			}
			dst, err := net.Dial("tcp", target)
			if err != nil {
				src.Close()
				continue
			}
			go delayCopy(dst, src, oneWay)
			go delayCopy(src, dst, oneWay)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }, nil
}

// delayCopy relays src to dst, releasing each chunk only after the
// one-way delay has elapsed (ordering preserved).
func delayCopy(dst, src net.Conn, oneWay time.Duration) {
	type chunk struct {
		due  time.Time
		data []byte
	}
	ch := make(chan chunk, 4096)
	go func() {
		defer dst.Close()
		for c := range ch {
			time.Sleep(time.Until(c.due))
			if _, err := dst.Write(c.data); err != nil {
				return
			}
		}
	}()
	defer close(ch)
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			ch <- chunk{due: time.Now().Add(oneWay), data: append([]byte(nil), buf[:n]...)}
		}
		if err != nil {
			return
		}
	}
}
