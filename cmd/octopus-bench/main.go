// Command octopus-bench regenerates the paper's evaluation artifacts:
// every table and figure of §V/§VI-E, printed as aligned text tables.
//
//	octopus-bench -all            # everything
//	octopus-bench -table 3        # Table III
//	octopus-bench -figure 4       # trigger autoscaling run
//	octopus-bench -table cost     # §VII-C cost analysis
//	octopus-bench -real           # reduced-scale run on the real fabric
//	octopus-bench -connections    # multiplexed session footprint at connection scale
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/broker"
	"repro/internal/model"
	"repro/internal/testbed"
)

func main() {
	table := flag.String("table", "", "table to regenerate: 1, 2, 3, cost")
	figure := flag.String("figure", "", "figure to regenerate: 3, 4, 5, 7, 8, triggers")
	all := flag.Bool("all", false, "regenerate everything")
	real := flag.Bool("real", false, "also run the reduced-scale real-fabric shape check")
	connBench := flag.Bool("connections", false, "measure multiplexed fetch sessions at connection scale")
	connCount := flag.Int("conn-count", 16, "connection count for -connections")
	csvDir := flag.String("csv", "", "export every artifact as CSV into this directory")
	flag.Parse()

	if !*all && *table == "" && *figure == "" && !*real && !*connBench && *csvDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *csvDir != "" {
		files, err := testbed.ExportCSV(*csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", *csvDir+"/"+f)
		}
	}
	if *all || *table == "1" {
		fmt.Println(testbed.Table1())
	}
	if *all || *table == "2" {
		fmt.Println(testbed.Table2())
	}
	if *all || *table == "3" {
		fmt.Println(testbed.Table3())
	}
	if *all || *figure == "3" {
		for _, t := range testbed.Figure3() {
			fmt.Println(t)
		}
	}
	if *all || *figure == "4" {
		fmt.Println(testbed.Figure4())
	}
	if *all || *figure == "triggers" || *figure == "4" {
		fmt.Println(testbed.TriggerThroughputTable())
	}
	if *all || *figure == "5" {
		fmt.Println(testbed.Figure5())
	}
	if *all || *figure == "7" {
		fmt.Println(testbed.Figure7())
	}
	if *all || *figure == "8" {
		for _, t := range testbed.Figure8() {
			fmt.Println(t)
		}
	}
	if *all || *table == "cost" {
		fmt.Println(testbed.CostTable())
	}
	if *real {
		runReal()
	}
	if *connBench {
		runConnBench(*connCount)
	}
}

// runReal measures the real in-process fabric at reduced scale and
// reports the same shape comparisons as Table III's acks column.
func runReal() {
	fmt.Println("Real-fabric shape check (this host, reduced scale):")
	t := &testbed.Table{
		Title:   "Acks sweep on the real fabric (1 KB events, 4 producers)",
		Columns: []string{"Acks", "Produce Thru (ev/s)", "Consume Thru (ev/s)", "Med Lat (ms)", "P99 Lat (ms)"},
	}
	for _, acks := range []broker.Acks{broker.AcksNone, broker.AcksLeader, broker.AcksAll} {
		op, err := testbed.NewOperator(model.Baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := op.Run(testbed.RunSpec{
			Topic: "real", Partitions: 2, ReplicationFactor: 2, Acks: acks,
			EventSize: 1024, Producers: 4, Consumers: 1, EventsPerProducer: 5000,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t.Add(acks.String(), res.ProduceThru, res.ConsumeThru,
			fmt.Sprintf("%.3f", res.ProduceMedMs), fmt.Sprintf("%.3f", res.ProduceP99Ms))
	}
	fmt.Println(t)
}
