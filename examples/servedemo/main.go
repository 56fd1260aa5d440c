// Servedemo embeds the engine and the RESP server in one process: it
// serves a small PrismDB on an ephemeral loopback port, speaks a few
// commands to it as a client over a real socket (one pipelined batch, one
// flush), and shuts down gracefully — the smallest complete picture of the
// serving path. For the standalone binary, see cmd/prismserver.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/server"
)

func main() {
	db, err := prismdb.Open(prismdb.RecommendedConfig(prismdb.TierSpec{
		TotalBytes:  64 << 20,
		NVMFraction: 0.11,
	}))
	if err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(server.Config{Engine: db})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	fmt.Printf("serving on %s\n", ln.Addr())

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	// One pipelined batch: the server parses all of it, executes in order,
	// and the replies come back in one flush.
	fmt.Fprintf(nc, "*3\r\n$3\r\nSET\r\n$6\r\nuser42\r\n$5\r\nhello\r\n")
	fmt.Fprintf(nc, "*3\r\n$3\r\nSET\r\n$6\r\nuser43\r\n$5\r\nworld\r\n")
	fmt.Fprintf(nc, "*2\r\n$3\r\nGET\r\n$6\r\nuser42\r\n")
	fmt.Fprintf(nc, "*3\r\n$4\r\nSCAN\r\n$4\r\nuser\r\n$2\r\n10\r\n")
	for _, want := range []string{"SET", "SET", "GET", "SCAN"} {
		rep, err := server.ReadReply(br)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case rep.IsErr():
			log.Fatalf("%s: server error: %s", want, rep.Str)
		case len(rep.Elems) > 0:
			fmt.Printf("%s → %d elements, first pair %q=%q\n",
				want, len(rep.Elems), rep.Elems[0].Str, rep.Elems[1].Str)
		default:
			fmt.Printf("%s → %q\n", want, rep.Str)
		}
	}

	if err := srv.Shutdown(time.Second); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	// After Close, operations fail deterministically.
	if _, err := db.Put([]byte("k"), []byte("v")); err == prismdb.ErrClosed {
		fmt.Println("after Close: Put →", err)
	}
}
