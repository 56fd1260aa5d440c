package prismdb_test

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/server"
)

// RecommendedConfig compacts in the background, so how many objects sit on
// each tier, and how long an operation took in virtual time, depend on host
// scheduling. The examples print only what scheduling cannot change.

// Open a two-tier database, then write, read, scan and delete.
func Example() {
	// A 64 MiB database with ~11% of its capacity on NVM (Optane-class)
	// and the rest on QLC flash: the paper's cost-efficient het10 point.
	db, err := prismdb.Open(prismdb.RecommendedConfig(prismdb.TierSpec{
		TotalBytes:  64 << 20,
		NVMFraction: 0.11,
		DatasetKeys: 50_000,
		Partitions:  4,
	}))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Writes go synchronously to NVM slabs: no memtable.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user%06d", i)
		if _, err := db.Put([]byte(key), []byte("profile-"+key)); err != nil {
			log.Fatal(err)
		}
	}

	// A read also reports the tier that served it and its simulated
	// latency.
	v, tier, _, err := db.Get([]byte("user000042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Get(user000042) = %q, served: %v\n", v, tier != prismdb.TierMiss)

	// A range scan merges the NVM index with the flash SST log.
	kvs, _, err := db.Scan([]byte("user000100"), 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range kvs {
		fmt.Printf("Scan: %s = %s\n", kv.Key, kv.Value)
	}

	// A delete leaves a tombstone where flash may hold an older version.
	if _, err := db.Delete([]byte("user000042")); err != nil {
		log.Fatal(err)
	}
	_, tier, _, _ = db.Get([]byte("user000042"))
	fmt.Println("after Delete, a miss:", tier == prismdb.TierMiss)
	// Output:
	// Get(user000042) = "profile-user000042", served: true
	// Scan: user000100 = profile-user000100
	// Scan: user000101 = profile-user000101
	// Scan: user000102 = profile-user000102
	// after Delete, a miss: true
}

// An iterator reads the database as of its creation: deletes and
// overwrites made while it is open do not reach it, and a scan after its
// Close sees them.
func ExampleDB_NewIterator() {
	cfg := prismdb.RecommendedConfig(prismdb.TierSpec{
		TotalBytes:  32 << 20,
		NVMFraction: 0.16,
		DatasetKeys: 20_000,
		Partitions:  4,
	})
	// Range partitioning keeps each partition a contiguous key span, the
	// layout for scan-heavy workloads (§4.1).
	cfg.RangePartitioning = true
	db, err := prismdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	pad := strings.Repeat(".", 600) // enough that NVM overflows to flash
	for i := 0; i < 10_000; i++ {
		if _, err := db.Put(key(i), []byte(fmt.Sprintf("v1-%d%s", i, pad))); err != nil {
			log.Fatal(err)
		}
	}

	// "user00004999x" is no stored key: the iterator starts at the first
	// key after it, user00005000.
	it := db.NewIterator([]byte("user00004999x"), 0)

	// Delete the even keys of the next 200 and overwrite the odd ones.
	deletedKeys := map[string]bool{}
	for i := 5000; i < 5200; i++ {
		if i%2 == 0 {
			_, err = db.Delete(key(i))
			deletedKeys[string(key(i))] = true
		} else {
			_, err = db.Put(key(i), []byte("v2"))
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	seen, deleted, overwritten := 0, 0, 0
	first, last := "", ""
	for ; it.Valid() && seen < 200; it.Next() {
		if first == "" {
			first = string(it.Key())
		}
		last = string(it.Key())
		if deletedKeys[last] {
			deleted++
		}
		if string(it.Value()) == "v2" {
			overwritten++
		}
		seen++
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iterator: %d keys [%s .. %s], %d deleted since it opened, %d overwritten values\n",
		seen, first, last, deleted, overwritten)

	kvs, _, err := db.Scan(key(5000), 100)
	if err != nil {
		log.Fatal(err)
	}
	overwritten = 0
	for _, kv := range kvs {
		if string(kv.Value) == "v2" {
			overwritten++
		}
	}
	fmt.Printf("Scan after Close: %d keys [%s .. %s], %d overwritten values\n",
		len(kvs), kvs[0].Key, kvs[len(kvs)-1].Key, overwritten)
	// Output:
	// iterator: 200 keys [user00005000 .. user00005199], 100 deleted since it opened, 0 overwritten values
	// Scan after Close: 100 keys [user00005001 .. user00005199], 100 overwritten values
}

// Serve the engine over RESP on a loopback port: one pipelined batch of
// commands, one flush of replies, then a graceful shutdown, after which the
// database refuses every operation with ErrClosed.
func Example_serve() {
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
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	// The server parses the whole batch, executes it in order and answers
	// with one write.
	if _, err := io.WriteString(nc, "*3\r\n$3\r\nSET\r\n$6\r\nuser42\r\n$5\r\nhello\r\n"+
		"*3\r\n$3\r\nSET\r\n$6\r\nuser43\r\n$5\r\nworld\r\n"+
		"*2\r\n$3\r\nGET\r\n$6\r\nuser42\r\n"+
		"*3\r\n$4\r\nSCAN\r\n$4\r\nuser\r\n$2\r\n10\r\n"); err != nil {
		log.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for _, cmd := range []string{"SET", "SET", "GET", "SCAN"} {
		rep, err := server.ReadReply(br)
		switch {
		case err != nil:
			log.Fatal(err)
		case rep.IsErr():
			log.Fatalf("%s: %s", cmd, rep.Str)
		case cmd == "SCAN":
			var pairs []string
			for i := 0; i+1 < len(rep.Elems); i += 2 {
				pairs = append(pairs, fmt.Sprintf("%s=%s", rep.Elems[i].Str, rep.Elems[i+1].Str))
			}
			fmt.Printf("%s → %s\n", cmd, strings.Join(pairs, " "))
		default:
			fmt.Printf("%s → %s\n", cmd, rep.Str)
		}
	}

	// Shutdown waits for open connections to drain, so close the client's
	// first.
	nc.Close()
	if err := srv.Shutdown(time.Second); err != nil {
		log.Fatal(err)
	}
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	_, err = db.Put([]byte("user44"), []byte("late"))
	fmt.Println("Put after Close:", err == prismdb.ErrClosed)
	// Output:
	// SET → OK
	// SET → OK
	// GET → hello
	// SCAN → user42=hello user43=world
	// Put after Close: true
}
