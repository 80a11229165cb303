package ttapp_test

import (
	"fmt"
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/core"
	"gptpfta/internal/ttapp"
)

// measureJitter runs one 10-ms control task per node for d and returns the
// tasks' cross-node release jitter.
func measureJitter(sys *core.System, d time.Duration, label string) ttapp.JitterStats {
	var tasks []*ttapp.Task
	for i, node := range sys.Nodes() {
		task, err := ttapp.NewTask(core.NodeName(i), sys.Scheduler(), node, ttapp.TaskConfig{
			Name:   label,
			Period: 10 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		if err := task.Start(); err != nil {
			panic(err)
		}
		tasks = append(tasks, task)
	}
	if err := sys.RunFor(d); err != nil {
		panic(err)
	}
	for _, t := range tasks {
		t.Stop()
	}
	return ttapp.SummarizeJitter(ttapp.CrossNodeJitter(tasks))
}

// Example runs the workload the paper's introduction motivates on the
// four-node testbed: a control task on every node, released at global
// 10 ms boundaries of CLOCK_SYNCTIME, so the cross-node release jitter is
// the clock synchronization quality the application sees. A fail-silent
// grandmaster barely registers (FTA + dependent-clock failover); two
// Byzantine grandmasters, beyond f = 1, destroy the schedule.
func Example() {
	sys, err := core.NewSystem(core.NewConfig(33))
	if err != nil {
		panic(err)
	}
	if err := sys.Start(); err != nil {
		panic(err)
	}
	if err := sys.RunFor(2 * time.Minute); err != nil {
		panic(err)
	}
	fmt.Printf("healthy:            %s\n", measureJitter(sys, time.Minute, "ctrl"))

	if err := sys.Node(2).FailVM(0); err != nil {
		panic(err)
	}
	fmt.Printf("one fail-silent GM: %s\n", measureJitter(sys, time.Minute, "ctrl-failsilent"))
	if err := sys.Node(2).RebootVM(0); err != nil {
		panic(err)
	}
	if err := sys.RunFor(time.Minute); err != nil {
		panic(err)
	}

	for _, name := range []string{"c11", "c41"} {
		vm, _ := sys.VM(name)
		vm.Stack.Compromise(attack.MaliciousOriginOffsetNS)
	}
	fmt.Printf("two Byzantine GMs:  %s\n", measureJitter(sys, 3*time.Minute, "ctrl-attacked"))
	// Output:
	// healthy:            release jitter over 6000 cycles: mean 73 ns, max 6456 ns
	// one fail-silent GM: release jitter over 6000 cycles: mean 95 ns, max 5757 ns
	// two Byzantine GMs:  release jitter over 17990 cycles: mean 22472 ns, max 74985 ns
}
