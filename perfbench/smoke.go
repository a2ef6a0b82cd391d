package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// runSmoke runs every workload for one second with two injected faults:
// the third query is sent malformed, so the server refuses it, and the
// fourth query's decoded answer is corrupted before it is checked. Both
// must land in failed (and so in failed_frac), the run must report
// correct=false, and nothing else may fail.
func runSmoke(bin, work string, seed int64) error {
	for _, name := range workloadNames() {
		dir := filepath.Join(work, fmt.Sprintf("smoke-%s-%d", name, os.Getpid()))
		r, err := newRunner(workloads[name], seed, 1, bin, dir)
		if err != nil {
			return err
		}
		r.refuseAt, r.corruptAt = 3, 4
		res, err := r.endToEnd()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("smoke %s: %w", name, err)
		}
		fmt.Printf("smoke %s: attempted=%d failed=%d failed_frac=%.4f correct=%v\n",
			name, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
		if res.Failed != 2 || res.Correct {
			return fmt.Errorf("smoke %s: want exactly the 2 injected failures and correct=false", name)
		}
	}
	fmt.Println("smoke: ok")
	return nil
}
