//===- profile/ContextTrie.cpp - Context-sensitive profiles ---------------===//

#include "profile/ContextTrie.h"

#include "support/Hashing.h"
#include "support/SourceText.h"

#include <cassert>

namespace csspgo {

std::string contextToString(const SampleContext &Ctx) {
  std::string S = "[";
  for (size_t I = 0; I != Ctx.size(); ++I) {
    if (I)
      S += " @ ";
    S += Ctx[I].Func;
    if (I + 1 != Ctx.size())
      S += ":" + std::to_string(Ctx[I].Site);
  }
  S += "]";
  return S;
}

bool contextFromString(const std::string &S, SampleContext &Out) {
  Out.clear();
  if (S.size() < 2 || S.front() != '[' || S.back() != ']')
    return false;
  std::string Inner = S.substr(1, S.size() - 2);
  if (Inner.empty())
    return false;
  // Split on " @ ".
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (true) {
    size_t At = Inner.find(" @ ", Pos);
    if (At == std::string::npos) {
      Parts.push_back(Inner.substr(Pos));
      break;
    }
    Parts.push_back(Inner.substr(Pos, At - Pos));
    Pos = At + 3;
  }
  for (size_t I = 0; I != Parts.size(); ++I) {
    ContextFrame F;
    size_t Colon = Parts[I].rfind(':');
    if (I + 1 != Parts.size()) {
      if (Colon == std::string::npos)
        return false;
      F.Func = Parts[I].substr(0, Colon);
      F.Site = static_cast<uint32_t>(
          std::strtoul(Parts[I].c_str() + Colon + 1, nullptr, 10));
    } else {
      F.Func = Parts[I];
    }
    if (F.Func.empty())
      return false;
    Out.push_back(std::move(F));
  }
  return true;
}

ContextTrieNode *ContextTrieNode::getChild(uint32_t Site,
                                           const std::string &Callee) {
  auto It = Children.find({Site, Callee});
  return It == Children.end() ? nullptr : &It->second;
}

const ContextTrieNode *
ContextTrieNode::getChild(uint32_t Site, const std::string &Callee) const {
  auto It = Children.find({Site, Callee});
  return It == Children.end() ? nullptr : &It->second;
}

ContextTrieNode &
ContextTrieNode::getOrCreateChild(uint32_t Site, const std::string &Callee) {
  ContextTrieNode &N = Children[{Site, Callee}];
  if (N.FuncName.empty()) {
    N.FuncName = Callee;
    N.Profile.Name = Callee;
    N.Profile.Guid = computeFunctionGuid(Callee);
  }
  return N;
}

uint64_t ContextTrieNode::subtreeSamples() const {
  uint64_t Total = HasProfile ? Profile.TotalSamples : 0;
  for (const auto &[Key, Child] : Children)
    Total = saturatingAdd(Total, Child.subtreeSamples());
  return Total;
}

ContextTrieNode &ContextProfile::getOrCreateNode(const SampleContext &Ctx) {
  assert(!Ctx.empty() && "empty context");
  ContextTrieNode *N = &Root;
  // The root's children are keyed by (0, top-level function name).
  N = &N->getOrCreateChild(0, Ctx.front().Func);
  for (size_t I = 0; I + 1 < Ctx.size(); ++I)
    N = &N->getOrCreateChild(Ctx[I].Site, Ctx[I + 1].Func);
  return *N;
}

const ContextTrieNode *
ContextProfile::findNode(const SampleContext &Ctx) const {
  if (Ctx.empty())
    return nullptr;
  const ContextTrieNode *N = Root.getChild(0, Ctx.front().Func);
  for (size_t I = 0; N && I + 1 < Ctx.size(); ++I)
    N = N->getChild(Ctx[I].Site, Ctx[I + 1].Func);
  return N;
}

ContextTrieNode *ContextProfile::findNode(const SampleContext &Ctx) {
  return const_cast<ContextTrieNode *>(
      static_cast<const ContextProfile *>(this)->findNode(Ctx));
}

const ContextTrieNode *
ContextProfile::findBase(const std::string &Func) const {
  return Root.getChild(0, Func);
}

ContextTrieNode *ContextProfile::findBase(const std::string &Func) {
  return Root.getChild(0, Func);
}

static void visitNodes(
    const ContextTrieNode &N, SampleContext &Ctx,
    const std::function<void(const SampleContext &, const ContextTrieNode &)>
        &Fn) {
  if (N.HasProfile)
    Fn(Ctx, N);
  for (const auto &[Key, Child] : N.Children) {
    if (!Ctx.empty())
      Ctx.back().Site = Key.first;
    Ctx.push_back({Child.FuncName, 0});
    visitNodes(Child, Ctx, Fn);
    Ctx.pop_back();
    if (!Ctx.empty())
      Ctx.back().Site = 0;
  }
}

void ContextProfile::forEachNode(
    const std::function<void(const SampleContext &, const ContextTrieNode &)>
        &Fn) const {
  SampleContext Ctx;
  visitNodes(Root, Ctx, Fn);
}

void ContextProfile::forEachNodeMutable(
    const std::function<void(const SampleContext &, ContextTrieNode &)> &Fn) {
  forEachNode([&Fn](const SampleContext &Ctx, const ContextTrieNode &N) {
    Fn(Ctx, const_cast<ContextTrieNode &>(N));
  });
}

size_t ContextProfile::numProfiles() const {
  size_t Count = 0;
  forEachNode([&Count](const SampleContext &, const ContextTrieNode &) {
    ++Count;
  });
  return Count;
}

uint64_t ContextProfile::totalSamples() const {
  return Root.subtreeSamples();
}

} // namespace csspgo
