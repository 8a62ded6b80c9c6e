package main

// The lock-health commands: .health prints the SLO verdict with the windowed
// rate series, .health json emits the full /health document, .health dump
// writes it to a file (the journal-smoke Makefile gate scrapes that dump),
// .health auto toggles the burn-alert → admission-control policy, and .topk
// ranks the hottest contended resources from the monitor's contention table.
//
// Every command advances the monitor's window clock to now first: the
// monitor has no timer of its own — polls ARE the clock.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"colock/internal/health"
	"colock/internal/lock"
	"colock/internal/metrics"
)

// shellDegraded is the admission gate `.health auto on` installs while the
// SLO is critical: a short queue cap that degrades (weakens to a coarser
// grant) rather than rejects, so the shell stays usable under the policy.
var shellDegraded = lock.AdmissionConfig{
	MaxWaiters: 4,
	MaxDelay:   2 * time.Millisecond,
	Mode:       lock.AdmitDegrade,
}

func (s *shell) healthCmd(arg string) {
	fields := strings.Fields(arg)
	s.eng.Monitor.Advance(time.Now())
	switch {
	case len(fields) == 0:
		s.showHealth()
	case fields[0] == "json" && len(fields) == 1:
		if err := s.eng.Monitor.WriteJSON(s.out); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
	case fields[0] == "dump" && len(fields) == 2:
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
			return
		}
		werr := s.eng.Monitor.WriteJSON(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(s.out, "error: write %s: %v%v\n", fields[1], werr, cerr)
			return
		}
		fmt.Fprintf(s.out, "-- health report written to %s\n", fields[1])
	case fields[0] == "auto" && len(fields) == 2 && fields[1] == "on":
		if s.auto == nil {
			s.auto = s.eng.Monitor.EnableAutoAdmission(s.eng.Manager, shellDegraded)
		} else {
			s.auto.Enable()
		}
		fmt.Fprintf(s.out, "auto-admission on: critical installs %+v, ok removes it\n", shellDegraded)
	case fields[0] == "auto" && len(fields) == 2 && fields[1] == "off":
		if s.auto == nil {
			fmt.Fprintln(s.out, "auto-admission was never enabled")
			return
		}
		s.auto.Disable()
		engages, recoveries := s.auto.Stats()
		fmt.Fprintf(s.out, "auto-admission off (engaged %d time(s), recovered %d)\n", engages, recoveries)
	default:
		fmt.Fprintln(s.out, "usage: .health [json|dump <path>|auto on|auto off]")
	}
}

func (s *shell) showHealth() {
	rep := s.eng.Monitor.Report(8)
	fmt.Fprintf(s.out, "health: %s", rep.State)
	if rep.Reason != "" {
		fmt.Fprintf(s.out, " (%s)", rep.Reason)
	}
	fmt.Fprintf(s.out, "  breach-streak=%d clean-streak=%d waiters=%d window=%v\n",
		rep.BreachStreak, rep.CleanStreak, rep.WaiterDepth,
		time.Duration(rep.WindowMs*float64(time.Millisecond)))
	if s.auto != nil {
		engaged := "standing by"
		if s.auto.Engaged() {
			engaged = "ENGAGED (degraded admission installed)"
		}
		fmt.Fprintf(s.out, "auto-admission: %s\n", engaged)
	}

	if len(rep.Windows) == 0 {
		fmt.Fprintln(s.out, "no closed windows yet (windows close as time passes; rerun after traffic)")
		return
	}
	tab := metrics.NewTable("Recent windows (oldest first)",
		"epoch", "acquires", "fastpath", "blocks", "aborts", "retries", "abort%", "p99 wait")
	for _, w := range rep.Windows {
		aborts := w.Counts["victims"] + w.Counts["wait_die"] + w.Counts["timeouts"]
		tab.Addf(w.Epoch, w.Counts["acquires"], w.Counts["fast_path_hits"],
			w.Counts["blocks"], aborts, w.Counts["retries"],
			fmt.Sprintf("%.2f", 100*w.AbortRate),
			time.Duration(w.WaitP99Ms*float64(time.Millisecond)).Round(time.Microsecond))
	}
	fmt.Fprint(s.out, tab)
}

func (s *shell) showTopK(arg string) {
	n := 10
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			fmt.Fprintf(s.out, "bad count %q (usage: .topk [n])\n", arg)
			return
		}
		n = v
	}
	s.eng.Monitor.Advance(time.Now())
	top := s.eng.Monitor.Profile().TopK(n)
	if len(top) == 0 {
		fmt.Fprintln(s.out, "no contention recorded (the table counts waits, victims, timeouts and sheds; counts halve every health window)")
		return
	}
	tab := metrics.NewTable("Hottest contended resources (decayed counts)",
		"#", "resource", "mode", "count", "±err")
	for i, e := range top {
		tab.Addf(i+1, string(e.Resource), e.Mode, e.Count, e.MaxErr)
	}
	fmt.Fprint(s.out, tab)
}

// healthSnapshot is used by tests to read the monitor without racing the
// repl goroutine: it advances the clock and returns the report.
func (s *shell) healthSnapshot() health.Report {
	s.eng.Monitor.Advance(time.Now())
	return s.eng.Monitor.Report(0)
}
