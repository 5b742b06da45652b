package main

import (
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// The whole benchmark — the harness and every child, each with GOMAXPROCS=1 —
// runs on one processor at a time, and the next set-up moves it to the next
// processor.  With more runnable threads than processors the kernel's
// placement decided a job's speed, and on the shared host one processor is
// often a third slower than the other for minutes (a neighbour on its core);
// a workload that needs both is slow whenever either is (README.md, "One
// processor at a time").

// cpuMask is a sched_setaffinity mask of 1024 processors.
type cpuMask [16]uint64

// allowedCPUs lists the processors the harness may run on, ascending.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return []int{0}
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return []int{0}
	}
	return cpus
}

// pinSelf moves every thread of the harness to one processor; threads
// started later, and child processes, inherit it from the thread that starts
// them.  The second sweep catches a thread the runtime started during the
// first.  Errors are not reported: a thread that has just exited is not one.
func pinSelf(cpu int) {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	for sweep := 0; sweep < 2; sweep++ {
		tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(os.Getpid()) + "/task/*")
		for _, t := range tasks {
			if tid, err := strconv.Atoi(filepath.Base(t)); err == nil {
				_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			}
		}
	}
}
