#!/usr/bin/env bash
# Served memory is window-bounded (DESIGN.md §4): jitserver -mode jit -indexed
# without -dir is fed the same generated stream for 10 and for 30 minutes of
# application time, and its resident high-water mark (VmHWM, read after the
# eos ack) must be flat in stream length — the two within 10 % of each other
# and both at most 20 MB — while the exit line's delivered= and cost= fields
# match the pinned values, which fail on any change to what the server
# computes.
#
# Usage: .github/scripts/served_memory.sh   (Linux; builds into a temp dir,
# listens on 127.0.0.1:4641)
set -euo pipefail
cd "$(dirname "$0")/../.."

readonly max_kb=20480 port=4641
declare -A want=(
  [10]="delivered=234324 cost=4577214"
  [30]="delivered=709505 cost=14331741"
)

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/jitserver ./cmd/jitgen

# probe <minutes>: prints "<VmHWM kB> delivered=… cost=…".
probe() {
  "$bin/jitserver" -n 3 -window 1 -mode jit -indexed -addr "127.0.0.1:$port" >"$bin/exit" 2>/dev/null &
  local pid=$! i
  for i in $(seq 50); do
    { exec 3<>"/dev/tcp/127.0.0.1/$port"; } 2>/dev/null && break
    sleep 0.1
  done
  { echo '{"cmd":"ingest"}'
    "$bin/jitgen" -n 3 -minutes "$1" -dmax 12 -rate 4 2>/dev/null | awk -F, '{
      printf "{\"id\":%d,\"source\":%d,\"ts\":%d,\"vals\":[%s", NR, index("ABCDEFGH",$2)-1, $1, $3
      for (i = 4; i <= NF; i++) printf ",%s", $i; print "]}" }'
    echo '{"cmd":"eos"}'; } >&3
  head -2 <&3 >/dev/null
  local hwm
  hwm=$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status")
  exec 3>&-
  wait "$pid"
  echo "$hwm $(grep -o 'delivered=[0-9]*' "$bin/exit") $(grep -o 'cost=[0-9]*' "$bin/exit")"
}

declare -A hwm
status=0
for m in 10 30; do
  read -r kb got <<<"$(probe "$m")"
  hwm[$m]=$kb
  echo "minutes=$m VmHWM=${kb}kB $got"
  if [[ "$got" != "${want[$m]}" ]]; then
    echo "  want ${want[$m]}" >&2
    status=1
  fi
  if ((kb > max_kb)); then
    echo "  VmHWM above ${max_kb} kB" >&2
    status=1
  fi
done
lo=$((hwm[10] < hwm[30] ? hwm[10] : hwm[30]))
hi=$((hwm[10] < hwm[30] ? hwm[30] : hwm[10]))
if ((hi * 10 > lo * 11)); then
  echo "VmHWM not flat in stream length: ${hwm[10]} kB at 10 minutes, ${hwm[30]} kB at 30" >&2
  status=1
fi
exit "$status"
