#include "BlockingUnderLockCheck.h"

#include <algorithm>
#include <string>

#include "PsmrLintUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/AST/Stmt.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace psmr {

namespace {

// BlockingQueue::push is deliberately absent: the queue is unbounded, so
// push never blocks — it is called under the owner's lock by design in the
// sim network and both transports.
constexpr char kDefaultMethods[] =
    "psmr::Semaphore::acquire;psmr::BlockingQueue::pop;"
    "psmr::BlockingQueue::pop_all";
constexpr char kDefaultFunctions[] =
    "connect;accept;poll;select;epoll_wait;recv;recvfrom;recvmsg;send;"
    "sendto;sendmsg;nanosleep;usleep;sleep;std::this_thread::sleep_for;"
    "std::this_thread::sleep_until";
constexpr char kDefaultGuards[] =
    "psmr::MutexLock;std::lock_guard;std::unique_lock;std::scoped_lock;"
    "std::shared_lock";
constexpr char kDefaultAllowed[] =
    "common/semaphore.h;common/blocking_queue.h;common/ranked_mutex.h";

bool contains(const std::vector<std::string> &Haystack,
              const std::string &Needle) {
  return std::find(Haystack.begin(), Haystack.end(), Needle) != Haystack.end();
}

// True when `T` is (a sugared spelling of) one of the guard classes.
bool isGuardType(QualType T, const std::vector<std::string> &GuardTypes) {
  if (T.isNull())
    return false;
  const CXXRecordDecl *RD = T.getNonReferenceType()->getAsCXXRecordDecl();
  // printQualifiedName on a template specialization yields the template
  // name without arguments ("std::lock_guard"), which is what the option
  // list spells.
  return RD != nullptr && contains(GuardTypes, RD->getQualifiedNameAsString());
}

// Is `Callee` a condition-variable wait? Those atomically release one lock,
// so one live guard is the monitor pattern, not a bug.
bool isCondVarWait(const FunctionDecl *Callee) {
  const auto *MD = dyn_cast<CXXMethodDecl>(Callee);
  if (MD == nullptr)
    return false;
  const StringRef Name = MD->getName();
  if (Name != "wait" && Name != "wait_for" && Name != "wait_until")
    return false;
  const std::string Cls = MD->getParent()->getQualifiedNameAsString();
  return Cls == "psmr::CondVar" || Cls == "std::condition_variable" ||
         Cls == "std::condition_variable_any";
}

// Counts guard objects declared lexically before `Call` in every enclosing
// block, walking the parent map up to the function boundary. Lambdas stop
// the walk (a lambda body's runtime locking context is its call site, not
// its lexical site).
unsigned countLiveGuards(ASTContext &Ctx, const Stmt *Call,
                         const std::vector<std::string> &GuardTypes) {
  unsigned Live = 0;
  const Stmt *Child = Call;
  while (true) {
    const auto &Parents = Ctx.getParents(*Child);
    if (Parents.empty())
      break;
    const Stmt *Parent = Parents[0].get<Stmt>();
    if (Parent == nullptr)
      break;  // reached the owning Decl (function / lambda operator())
    if (const auto *CS = dyn_cast<CompoundStmt>(Parent)) {
      for (const Stmt *Sub : CS->body()) {
        if (Sub == Child)
          break;  // only declarations preceding the call are live at it
        const auto *DS = dyn_cast<DeclStmt>(Sub);
        if (DS == nullptr)
          continue;
        for (const Decl *D : DS->decls()) {
          const auto *VD = dyn_cast<VarDecl>(D);
          if (VD != nullptr && isGuardType(VD->getType(), GuardTypes))
            ++Live;
        }
      }
    }
    Child = Parent;
  }
  return Live;
}

}  // namespace

BlockingUnderLockCheck::BlockingUnderLockCheck(StringRef Name,
                                               ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      BlockingMethods(
          splitList(Options.get("BlockingMethods", kDefaultMethods))),
      BlockingFunctions(
          splitList(Options.get("BlockingFunctions", kDefaultFunctions))),
      GuardTypes(splitList(Options.get("GuardTypes", kDefaultGuards))),
      AllowedFiles(splitList(Options.get("AllowedFiles", kDefaultAllowed))) {}

void BlockingUnderLockCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "BlockingMethods", joinList(BlockingMethods));
  Options.store(Opts, "BlockingFunctions", joinList(BlockingFunctions));
  Options.store(Opts, "GuardTypes", joinList(GuardTypes));
  Options.store(Opts, "AllowedFiles", joinList(AllowedFiles));
}

void BlockingUnderLockCheck::registerMatchers(MatchFinder *Finder) {
  // Classification happens in check(): the blocking sets are user options,
  // and hasAnyName cannot be built from a runtime list portably.
  Finder->addMatcher(callExpr(callee(functionDecl())).bind("call"), this);
}

void BlockingUnderLockCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call");
  if (Call == nullptr)
    return;
  const FunctionDecl *Callee = Call->getDirectCallee();
  if (Callee == nullptr)
    return;

  const std::string Qualified = Callee->getQualifiedNameAsString();
  const bool Method = isa<CXXMethodDecl>(Callee);
  bool Blocking = false;
  bool CvWait = false;
  if (Method && contains(BlockingMethods, Qualified)) {
    Blocking = true;
  } else if (!Method && contains(BlockingFunctions, Qualified)) {
    Blocking = true;
  } else if (isCondVarWait(Callee)) {
    CvWait = true;
  }
  if (!Blocking && !CvWait)
    return;

  const SourceLocation Loc = Call->getBeginLoc();
  if (Result.SourceManager->isInSystemHeader(
          Result.SourceManager->getExpansionLoc(Loc)))
    return;
  if (locationInFiles(*Result.SourceManager, Loc, AllowedFiles))
    return;

  const unsigned Guards =
      countLiveGuards(*Result.Context, Call, GuardTypes);
  // A CV wait releases exactly one lock; it only over-holds with >= 2.
  const unsigned Threshold = CvWait ? 2 : 1;
  if (Guards < Threshold)
    return;
  diag(Loc,
       "blocking call %0 with %1 scope lock(s) held — blocking under a "
       "mutex serializes its contenders and invites deadlock; release the "
       "lock first, or NOLINT with the invariant that bounds the wait")
      << Qualified << Guards;
}

}  // namespace psmr
}  // namespace tidy
}  // namespace clang
