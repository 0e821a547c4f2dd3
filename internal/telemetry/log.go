package telemetry

// log.go is the structured-logging half of the observability layer:
// one log/slog configuration shared by all binaries (-log-level),
// writing text records to stderr. Stdout stays reserved for results,
// which is what the byte-identity checks compare.

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
)

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn, or error)", s)
}

// InitLogging parses the -log-level flag value, installs a text logger
// at that level on stderr as slog's process default, and returns it.
// Called once from each binary's main.
func InitLogging(level string) (*slog.Logger, error) {
	lv, err := ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
	slog.SetDefault(lg)
	return lg, nil
}
