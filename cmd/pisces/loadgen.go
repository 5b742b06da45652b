package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// loadgenSrc is the default workload: a spawn, a message round trip and a
// little arithmetic, so every submission exercises the full session path
// (compile cache, VM boot, scheduling, reap) without being a pure no-op.
const loadgenSrc = `TASKTYPE MAIN
      INTEGER I, J
      SIGNAL RESULT
      ON ANY INITIATE WORKER(3)
      J = 0
      DO 10 I = 1, 100
        J = J + I
10    CONTINUE
      ACCEPT 1 OF RESULT
      PRINT *, 'SUM', J, MSGI('RESULT', 1, 1)
END TASKTYPE

TASKTYPE WORKER(ME)
      INTEGER ME
      TO PARENT SEND RESULT(ME * ME)
END TASKTYPE
`

// runLoadgen implements "pisces loadgen -addr host:port [-tenants N]
// [-duration D]": closed-loop load against a serving daemon.  Each simulated
// tenant submits a program, waits for completion via the blocking output
// endpoint, and repeats until the duration elapses; the report gives
// throughput and submit-to-complete latency quantiles.
func runLoadgen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pisces loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "daemon address (host:port) to load")
	tenants := fs.Int("tenants", 8, "concurrent closed-loop tenants")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	program := fs.String("program", "", "submit this .pf file instead of the built-in workload")
	if help, err := parseFlags(fs, args, out); help || err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("usage: pisces loadgen -addr host:port [-tenants N] [-duration D]")
	}
	if *tenants < 1 {
		return fmt.Errorf("-tenants must be at least 1")
	}
	if err := positive("duration", *duration); err != nil {
		return err
	}
	src := loadgenSrc
	if *program != "" {
		b, err := os.ReadFile(*program)
		if err != nil {
			return err
		}
		src = string(b)
	}
	base := "http://" + *addr

	type tally struct {
		completed, failed, rejected int
		latencies                   []time.Duration
	}
	results := make([]tally, *tenants)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: 90 * time.Second}
			tenant := fmt.Sprintf("loadgen-%d", i)
			for time.Now().Before(deadline) {
				start := time.Now()
				id, status, err := submitProgram(client, base, tenant, src)
				if err != nil {
					results[i].failed++
					continue
				}
				if status != http.StatusAccepted {
					// Admission pushback (429/503): back off briefly.
					results[i].rejected++
					time.Sleep(5 * time.Millisecond)
					continue
				}
				state, err := waitProgram(client, base, id)
				if err != nil || state != "done" {
					results[i].failed++
					continue
				}
				results[i].completed++
				results[i].latencies = append(results[i].latencies, time.Since(start))
			}
		}(i)
	}
	wg.Wait()

	var total tally
	for _, r := range results {
		total.completed += r.completed
		total.failed += r.failed
		total.rejected += r.rejected
		total.latencies = append(total.latencies, r.latencies...)
	}
	if total.failed > 0 {
		return fmt.Errorf("loadgen: %d of %d submissions failed", total.failed, total.completed+total.failed)
	}
	sort.Slice(total.latencies, func(a, b int) bool { return total.latencies[a] < total.latencies[b] })
	fmt.Fprintf(out, "loadgen: %d tenants, %v\n", *tenants, *duration)
	fmt.Fprintf(out, "  completed  %d (%.1f programs/s)\n", total.completed, float64(total.completed)/duration.Seconds())
	fmt.Fprintf(out, "  rejected   %d (admission pushback)\n", total.rejected)
	if n := len(total.latencies); n > 0 {
		q := func(p float64) time.Duration {
			idx := int(p * float64(n-1))
			return total.latencies[idx].Round(time.Microsecond)
		}
		fmt.Fprintf(out, "  latency    p50 %v  p95 %v  p99 %v  max %v\n",
			q(0.50), q(0.95), q(0.99), total.latencies[n-1].Round(time.Microsecond))
	}
	return nil
}

// submitProgram POSTs one program and returns the session id and HTTP code.
func submitProgram(client *http.Client, base, tenant, src string) (string, int, error) {
	body, _ := json.Marshal(map[string]string{"tenant": tenant, "source": src})
	resp, err := client.Post(base+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "", resp.StatusCode, nil
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", resp.StatusCode, err
	}
	return st.ID, resp.StatusCode, nil
}

// waitProgram blocks on the output endpoint until the session finishes, then
// fetches its terminal state.
func waitProgram(client *http.Client, base, id string) (string, error) {
	resp, err := client.Get(base + "/programs/" + id + "/output?wait=1")
	if err != nil {
		return "", err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	sresp, err := client.Get(base + "/programs/" + id + "/status")
	if err != nil {
		return "", err
	}
	defer sresp.Body.Close()
	var st struct {
		State string `json:"state"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&st)
	return st.State, err
}
