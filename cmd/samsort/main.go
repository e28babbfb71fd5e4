// Command samsort coordinate-sorts a SAM or BAM file into BAM, the
// precondition for BAI/BAIX indexing and partial conversion.
//
// Usage:
//
//	samsort -in reads.sam -out sorted.bam -p 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parseq/internal/obsflag"
	"parseq/internal/sorter"
)

func main() {
	var (
		in       = flag.String("in", "", "input file (.sam or .bam)")
		out      = flag.String("out", "", "output BAM (default: input with .sorted.bam)")
		cores    = flag.Int("p", 1, "parallel chunk-sort workers, and SAM parse+encode workers")
		chunk    = flag.Int("chunk", 0, "records per in-memory chunk (default 100000)")
		codec    = flag.Int("codec-workers", 0, "BGZF codec goroutines per BAM stream (0: auto, one per CPU capped; 1: sequential codec)")
		shared   = flag.Bool("shared-codec", false, "compress spilled runs on the process-wide shared deflate pool")
		obsFlags = obsflag.Register(nil)
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "samsort: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(strings.TrimSuffix(*in, ".sam"), ".bam") + ".sorted.bam"
	}
	obsSession, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "samsort:", err)
		os.Exit(1)
	}
	defer func() {
		if err := obsSession.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "samsort:", err)
		}
	}()
	if addr := obsSession.ServerAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "samsort: serving metrics on http://%s/metrics\n", addr)
	}
	opts := sorter.Options{ChunkRecords: *chunk, Cores: *cores, CodecWorkers: *codec, SharedCodec: *shared}
	var n int64
	switch {
	case strings.HasSuffix(*in, ".sam"):
		n, err = sorter.SortSAMToBAM(*in, dst, opts)
	case strings.HasSuffix(*in, ".bam"):
		n, err = sorter.SortBAM(*in, dst, opts)
	default:
		err = fmt.Errorf("cannot infer input format of %q (want .sam or .bam)", *in)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "samsort:", err)
		os.Exit(1)
	}
	fmt.Printf("sorted %d records → %s\n", n, dst)
}
