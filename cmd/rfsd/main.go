// Command rfsd boots a simulated system with a few processes and exports
// its name space — including /proc and /procx — over TCP via the RFS
// protocol, so that rfsctl (or any protocol client) can inspect and control
// its processes from another OS process entirely.
//
//	rfsd [-addr 127.0.0.1:7909] [-workers 4]
//
// The simulation keeps running in the background between requests, so
// remote observers see the processes making progress. Each connection
// opens with the mux handshake (rfsctl sends it) and is then served the
// pipelined tagged protocol with -workers concurrent dispatchers; a
// connection whose first frame is not the handshake is closed.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/rfs"
	"repro/internal/types"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7909", "listen address")
	workers := flag.Int("workers", 4, "concurrent request dispatchers per multiplexed connection")
	flag.Parse()

	s := repro.NewSystem()
	boot := []struct {
		name string
		uid  int
		src  string
	}{
		{"ticker", 100, `
loop:	movi r0, SYS_sleep
	movi r1, 50
	syscall
	la r3, ticks
	ld r4, [r3]
	addi r4, 1
	st r4, [r3]
	jmp loop
.data
ticks:	.word 0
`},
		{"cruncher", 200, `
loop:	addi r5, 1
	jmp loop
`},
	}
	for _, b := range boot {
		if _, err := s.SpawnProg(b.name, b.src, types.UserCred(b.uid, b.uid/10)); err != nil {
			fmt.Fprintln(os.Stderr, "rfsd:", err)
			os.Exit(1)
		}
	}

	var lock sync.Mutex
	srv := rfs.NewServer(s.NS, &lock)
	srv.MuxWorkers = *workers

	// Keep the simulation ticking between protocol requests.
	go func() {
		for {
			lock.Lock()
			s.Run(20)
			lock.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfsd:", err)
		os.Exit(1)
	}
	fmt.Printf("rfsd: exporting /proc of a simulated system on %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfsd:", err)
			os.Exit(1)
		}
		go func() {
			defer conn.Close()
			srv.ServeConn(conn)
		}()
	}
}
