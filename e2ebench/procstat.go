package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procSample is the part of /proc/<pid>/stat the benchmark uses.
type procSample struct {
	cpuSeconds float64 // utime + stime
	rssBytes   int64
}

// parseProcStat parses the text of /proc/<pid>/stat. The command name
// (field 2) is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (procSample, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return procSample{}, fmt.Errorf("proc stat: no command field in %q", text)
	}
	// rest[0] is field 3 (state); utime/stime are fields 14/15 and rss
	// is field 24.
	rest := strings.Fields(text[end+1:])
	const utime, stime, rss = 14 - 3, 15 - 3, 24 - 3
	if len(rest) <= rss {
		return procSample{}, fmt.Errorf("proc stat: %d fields after the command, want > %d", len(rest), rss)
	}
	u, err1 := strconv.ParseUint(rest[utime], 10, 64)
	s, err2 := strconv.ParseUint(rest[stime], 10, 64)
	r, err3 := strconv.ParseInt(rest[rss], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procSample{}, fmt.Errorf("proc stat: bad utime/stime/rss %q %q %q", rest[utime], rest[stime], rest[rss])
	}
	return procSample{
		cpuSeconds: float64(u+s) / clockTicks,
		rssBytes:   r * int64(pageSize()),
	}, nil
}

func pageSize() int { return os.Getpagesize() }

// readProc samples /proc/<pid>/stat ("self" for this process).
func readProc(pid string) (procSample, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procSample{}, err
	}
	return parseProcStat(string(b))
}
