#include "verify/witness.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "common/json.h"
#include "kernel/syscalls.h"
#include "verify/cfg.h"

namespace acs::verify {

namespace {

using compiler::Scheme;
using sim::AddrMode;
using sim::Instruction;
using sim::Opcode;
using sim::Reg;
using sim::UnwindKind;

[[nodiscard]] bool is_chain_scheme(Scheme scheme) noexcept {
  return scheme == Scheme::kPacStack || scheme == Scheme::kPacStackNoMask;
}

[[nodiscard]] bool is_chain_frame(const sim::UnwindInfo* info) noexcept {
  return info != nullptr && (info->kind == UnwindKind::kAcsChainMasked ||
                             info->kind == UnwindKind::kAcsChainUnmasked);
}

/// Apply one instruction's effect on the abstract SP (entry-relative).
/// Returns false when SP becomes statically unknown on this path.
[[nodiscard]] bool apply_sp(const Instruction& in, i64& sp) {
  // Base-register writeback of SP-based memory accesses.
  const bool is_mem = in.op == Opcode::kStr || in.op == Opcode::kStrb ||
                      in.op == Opcode::kStp || in.op == Opcode::kLdr ||
                      in.op == Opcode::kLdrb || in.op == Opcode::kLdp;
  if (is_mem && in.rn == Reg::kSp && in.mode != AddrMode::kOffset) {
    sp += in.imm;
  }
  switch (in.op) {
    case Opcode::kAddImm:
    case Opcode::kSubImm:
      if (in.rd == Reg::kSp) {
        if (in.rn != Reg::kSp) return false;
        sp += in.op == Opcode::kAddImm ? in.imm : -in.imm;
      }
      return true;
    case Opcode::kMovReg:
    case Opcode::kMovImm:
    case Opcode::kAddReg:
    case Opcode::kSubReg:
    case Opcode::kAndReg:
    case Opcode::kOrrReg:
    case Opcode::kEorReg:
    case Opcode::kLslImm:
    case Opcode::kLsrImm:
      return in.rd != Reg::kSp;
    case Opcode::kLdr:
    case Opcode::kLdrb:
    case Opcode::kLdp:
      return in.rd != Reg::kSp && in.rm != Reg::kSp;
    default:
      return true;
  }
}

/// A block path from the function entry to the store, plus the abstract SP
/// reconstructed along it.
struct StorePath {
  std::vector<u64> block_trace;  ///< block begins, entry first
  i64 sp_before = 0;             ///< SP when the store is about to execute
};

/// BFS a block path from `fn.entry` to the block containing `store`, then
/// walk it accumulating SP updates. Fails (nullopt) when no path exists or
/// SP is not statically known along the discovered path.
[[nodiscard]] std::optional<StorePath> walk_to_store(const FunctionCfg& fn,
                                                     const sim::Program& program,
                                                     u64 store) {
  const BasicBlock* target = fn.block_containing(store);
  if (target == nullptr) return std::nullopt;
  std::map<u64, u64> parent;  // block begin -> predecessor begin
  std::deque<u64> queue;
  parent.emplace(fn.entry, fn.entry);
  queue.push_back(fn.entry);
  while (!queue.empty()) {
    const u64 begin = queue.front();
    queue.pop_front();
    if (begin == target->begin) break;
    const BasicBlock* block = fn.block_at(begin);
    if (block == nullptr) continue;
    for (const u64 succ : block->succs) {
      if (parent.emplace(succ, begin).second) queue.push_back(succ);
    }
  }
  if (!parent.contains(target->begin)) return std::nullopt;

  StorePath path;
  for (u64 at = target->begin;; at = parent.at(at)) {
    path.block_trace.push_back(at);
    if (at == fn.entry) break;
  }
  std::reverse(path.block_trace.begin(), path.block_trace.end());

  i64 sp = 0;
  for (const u64 begin : path.block_trace) {
    const BasicBlock* block = fn.block_at(begin);
    const u64 stop = begin == target->begin ? store : block->end;
    for (u64 addr = block->begin; addr < stop; addr += sim::kInstrBytes) {
      if (!apply_sp(program.at(addr), sp)) return std::nullopt;
    }
  }
  path.sp_before = sp;
  return path;
}

/// Locate the attacked slot within the store instruction: the SP-relative
/// offset of the spilled return-address/chain value, plus the SP after the
/// store's writeback. Fails for non-SP-based stores and for pair stores
/// where neither register is LR or the chain register.
struct SlotInfo {
  i64 slot = 0;
  i64 sp_after = 0;
};

[[nodiscard]] std::optional<SlotInfo> locate_slot(const Instruction& in,
                                                  i64 sp_before) {
  if (in.rn != Reg::kSp) return std::nullopt;
  i64 base = 0;
  i64 sp_after = sp_before;
  switch (in.mode) {
    case AddrMode::kOffset: base = sp_before + in.imm; break;
    case AddrMode::kPreIndex: sp_after += in.imm; base = sp_after; break;
    case AddrMode::kPostIndex: base = sp_before; sp_after += in.imm; break;
  }
  SlotInfo info;
  info.sp_after = sp_after;
  if (in.op == Opcode::kStr) {
    info.slot = base;
    return info;
  }
  if (in.op == Opcode::kStp) {
    if (in.rm == sim::kLr || in.rm == sim::kCr) {
      info.slot = base + 8;
      return info;
    }
    if (in.rd == sim::kLr || in.rd == sim::kCr) {
      info.slot = base;
      return info;
    }
  }
  return std::nullopt;
}

/// First instruction with opcode `op` in [entry, end), or 0.
[[nodiscard]] u64 find_opcode(const sim::Program& program, u64 entry, u64 end,
                              Opcode op) {
  for (u64 addr = entry; addr < end; addr += sim::kInstrBytes) {
    if (program.at(addr).op == op) return addr;
  }
  return 0;
}

/// Direct-call chain (function names) from "main" to `target`, or empty
/// when the target is only reachable indirectly.
[[nodiscard]] std::vector<std::string> call_chain_to(const ProgramCfg& cfg,
                                                     u64 target) {
  const auto main_it = cfg.program->symbols.find("main");
  if (main_it == cfg.program->symbols.end()) return {};
  const u64 root = main_it->second;
  std::map<u64, u64> parent;
  std::deque<u64> queue;
  parent.emplace(root, root);
  queue.push_back(root);
  while (!queue.empty()) {
    const u64 entry = queue.front();
    queue.pop_front();
    if (entry == target) break;
    const FunctionCfg* fn = cfg.function_at(entry);
    if (fn == nullptr) continue;
    for (const auto* edges : {&fn->direct_callees, &fn->tail_callees}) {
      for (const u64 callee : *edges) {
        if (parent.emplace(callee, entry).second) queue.push_back(callee);
      }
    }
  }
  if (!parent.contains(target)) return {};
  std::vector<std::string> chain;
  for (u64 at = target;; at = parent.at(at)) {
    const FunctionCfg* fn = cfg.function_at(at);
    chain.push_back(fn != nullptr ? fn->name : "?");
    if (at == root) break;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Count the `bl` sites in [entry, end) targeting `callee`.
[[nodiscard]] std::size_t count_call_sites(const sim::Program& program,
                                           u64 entry, u64 end, u64 callee) {
  std::size_t sites = 0;
  for (u64 addr = entry; addr < end; addr += sim::kInstrBytes) {
    const Instruction& in = program.at(addr);
    if (in.op == Opcode::kBl && in.target == callee) ++sites;
  }
  return sites;
}

/// Whole-program replayability gate: the replay procedures rely on the
/// k-th execution of a prologue store pairing with the k-th execution of
/// the matching return, and on callees returning into their callers.
/// Reachable non-local control flow — fork, threads, signals, exception
/// throws, setjmp/longjmp — breaks either property, so no witness is
/// synthesized anywhere in such a program.
[[nodiscard]] bool program_is_replayable(const sim::Program& program,
                                         const ProgramCfg& cfg,
                                         const std::set<u64>& reachable) {
  std::set<u64> unwinders;
  for (const char* name :
       {"__setjmp", "__longjmp", "__acs_setjmp", "__acs_longjmp"}) {
    const auto it = program.symbols.find(name);
    if (it != program.symbols.end()) unwinders.insert(it->second);
  }
  for (const auto& fn : cfg.functions) {
    if (!reachable.contains(fn.entry)) continue;
    for (u64 addr = fn.entry; addr < fn.end; addr += sim::kInstrBytes) {
      const Instruction& in = program.at(addr);
      if (in.op == Opcode::kSvc) {
        switch (static_cast<kernel::Syscall>(in.imm)) {
          case kernel::Syscall::kFork:
          case kernel::Syscall::kThreadCreate:
          case kernel::Syscall::kSigaction:
          case kernel::Syscall::kKill:
          case kernel::Syscall::kThrow:
            return false;
          default:
            break;
        }
      }
      if (in.op == Opcode::kBl && unwinders.contains(in.target)) {
        return false;
      }
    }
  }
  return true;
}

class Synthesizer {
 public:
  Synthesizer(const sim::Program& program, Scheme scheme)
      : program_(program), scheme_(scheme), cfg_(build_cfg(program)) {
    for (const u64 entry : reachable_entries(cfg_)) reachable_.insert(entry);
    replayable_ = program_is_replayable(program_, cfg_, reachable_);
  }

  [[nodiscard]] std::optional<Witness> synthesize(const Diagnostic& diag) {
    switch (diag.code) {
      case Code::kRawRetReuse: return raw_ret_reuse(diag);
      case Code::kUnmaskedAretSpill: return unmasked_spill(diag);
      case Code::kSignedRetSpill: return signed_spill(diag);
      default: return std::nullopt;
    }
  }

 private:
  /// Shared frame: victim function, store path, slot, call chain. The
  /// per-code synthesizers add their own use site and gates on top.
  [[nodiscard]] std::optional<Witness> frame(const Diagnostic& diag,
                                             u64 store) {
    if (!replayable_) return std::nullopt;
    if (store == 0 || !program_.contains(store)) return std::nullopt;
    const FunctionCfg* fn = cfg_.function_containing(diag.address);
    if (fn == nullptr || !reachable_.contains(fn->entry)) return std::nullopt;
    if (store < fn->entry || store >= fn->end) return std::nullopt;
    const auto path = walk_to_store(*fn, program_, store);
    if (!path) return std::nullopt;
    const auto slot = locate_slot(program_.at(store), path->sp_before);
    if (!slot) return std::nullopt;
    const auto chain = call_chain_to(cfg_, fn->entry);
    if (chain.empty()) return std::nullopt;

    Witness w;
    w.code = diag.code;
    w.scheme = scheme_;
    w.function = fn->name;
    w.diag_address = diag.address;
    w.store_address = store;
    w.slot = slot->slot;
    w.sp_after_store = slot->sp_after;
    w.call_chain = chain;
    w.block_trace = path->block_trace;
    return w;
  }

  /// ACS001: the flagged instruction must be a plain `ret` (tail-call
  /// consumers are not replayed) — overwriting the witnessed slot between
  /// the spill and this return diverts control.
  [[nodiscard]] std::optional<Witness> raw_ret_reuse(const Diagnostic& diag) {
    if (program_.at(diag.address).op != Opcode::kRet) return std::nullopt;
    auto w = frame(diag, diag.store_address);
    if (!w) return std::nullopt;
    w->use_address = diag.address;
    w->effect = "control-flow-divert";
    return w;
  }

  /// ACS002: the flagged store spills the chain register with its PAC in
  /// the clear. Replay confirms the disclosure at the *caller's*
  /// authenticator, so every static direct caller must itself be
  /// chain-instrumented (the caller is resolved dynamically at replay;
  /// use_address stays 0).
  [[nodiscard]] std::optional<Witness> unmasked_spill(const Diagnostic& diag) {
    if (!is_chain_scheme(scheme_)) return std::nullopt;
    const Instruction& in = program_.at(diag.address);
    if (in.op != Opcode::kStr || in.rd != sim::kCr) return std::nullopt;
    auto w = frame(diag, diag.address);
    if (!w) return std::nullopt;
    const FunctionCfg* fn = cfg_.function_containing(diag.address);
    std::size_t callers = 0;
    for (const auto& caller : cfg_.functions) {
      if (!reachable_.contains(caller.entry)) continue;
      if (count_call_sites(program_, caller.entry, caller.end, fn->entry) ==
          0) {
        continue;
      }
      if (!is_chain_frame(caller.unwind) ||
          find_opcode(program_, caller.entry, caller.end, Opcode::kAutia) ==
              0) {
        return std::nullopt;  // disclosure has no in-chain authenticator
      }
      ++callers;
    }
    if (callers == 0) return std::nullopt;
    w->effect = "forged-pac-accept";
    return w;
  }

  /// ACS003: the SP-signed return address is spilled; a reuse pair needs
  /// two activations with a shared SP modifier and different return
  /// addresses, so some reachable caller must hold two distinct call sites
  /// into the victim. The consuming `retaa` is the use site.
  [[nodiscard]] std::optional<Witness> signed_spill(const Diagnostic& diag) {
    if (scheme_ != Scheme::kPacRet && scheme_ != Scheme::kPacRetLeaf) {
      return std::nullopt;
    }
    auto w = frame(diag, diag.address);
    if (!w) return std::nullopt;
    const FunctionCfg* fn = cfg_.function_containing(diag.address);
    const u64 retaa = find_opcode(program_, fn->entry, fn->end, Opcode::kRetaa);
    if (retaa == 0) return std::nullopt;
    bool has_pair = false;
    for (const auto& caller : cfg_.functions) {
      if (!reachable_.contains(caller.entry)) continue;
      if (count_call_sites(program_, caller.entry, caller.end, fn->entry) >=
          2) {
        has_pair = true;
        break;
      }
    }
    if (!has_pair) return std::nullopt;
    w->use_address = retaa;
    w->effect = "control-flow-divert";
    return w;
  }

  const sim::Program& program_;
  Scheme scheme_;
  ProgramCfg cfg_;
  std::set<u64> reachable_;
  bool replayable_ = false;
};

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << '"' << json_escape(s) << '"';
}

}  // namespace

std::vector<Witness> synthesize_witnesses(const sim::Program& program,
                                          compiler::Scheme scheme,
                                          const Report& report) {
  Synthesizer synth(program, scheme);
  std::vector<Witness> witnesses;
  for (const Diagnostic& diag : report.diagnostics) {
    if (auto w = synth.synthesize(diag)) witnesses.push_back(std::move(*w));
  }
  return witnesses;
}

std::string to_json(const Witness& w) {
  std::ostringstream out;
  out << "{\"code\": \"" << code_name(w.code) << "\", \"scheme\": ";
  append_escaped(out, compiler::scheme_name(w.scheme));
  out << ", \"function\": ";
  append_escaped(out, w.function);
  out << ", \"diag_address\": " << w.diag_address
      << ", \"store_address\": " << w.store_address
      << ", \"use_address\": " << w.use_address << ", \"slot\": " << w.slot
      << ", \"sp_after_store\": " << w.sp_after_store << ", \"call_chain\": [";
  for (std::size_t i = 0; i < w.call_chain.size(); ++i) {
    if (i > 0) out << ", ";
    append_escaped(out, w.call_chain[i]);
  }
  out << "], \"block_trace\": [";
  for (std::size_t i = 0; i < w.block_trace.size(); ++i) {
    if (i > 0) out << ", ";
    out << w.block_trace[i];
  }
  out << "], \"effect\": ";
  append_escaped(out, w.effect);
  out << "}";
  return out.str();
}

}  // namespace acs::verify
