//===- jvm/Vm.cpp - The miniature Java virtual machine -------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvm/Vm.h"

#include "mutate/Mutation.h"

#include "support/Compiler.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace jinn;
using namespace jinn::jvm;

static std::string dottedName(const std::string &Internal);

VmEventObserver::~VmEventObserver() = default;

//===----------------------------------------------------------------------===
// Safepoint protocol (DESIGN.md §12)
//
// Every OS thread carries one MutatorSlot per VM it has entered, cached in
// TLS keyed by the VM's live-instance serial. The steady-state mutator
// enter/exit path is lock-free: it flips the slot's Active flag and checks
// StwRequested, both with seq_cst order, which forms the Dekker-style
// store/load pair against the collector (StwRequested store, then Active
// scan) — one side always observes the other. The release/acquire edges of
// the same flags are what make plain JThread fields (Pending, Stack,
// TempRootStack) safe to read from the collector during a pause.
//===----------------------------------------------------------------------===

namespace jinn::jvm {

/// Per-OS-thread cache of (VM serial -> mutator slot) bindings, MRU-first.
/// The destructor hands slots back through the live-instance registry on
/// OS-thread exit (safe even when the VM died first).
struct VmTlsCache {
  std::vector<Vm::MutatorTls> Refs;

  ~VmTlsCache() {
    for (Vm::MutatorTls &R : Refs)
      withLiveInstance(R.Serial, &Vm::returnMutatorSlotTrampoline, R.Slot);
  }
};

} // namespace jinn::jvm

static thread_local VmTlsCache VmTls;

Vm::MutatorTls &Vm::mutatorTlsForCurrentThread() {
  auto &Refs = VmTls.Refs;
  if (!Refs.empty() && Refs.front().Serial == VmSerial)
    return Refs.front();
  for (size_t I = 1; I < Refs.size(); ++I)
    if (Refs[I].Serial == VmSerial) {
      std::swap(Refs[0], Refs[I]);
      return Refs.front();
    }

  // First entry of this thread into this VM: prune entries of dead VMs and
  // adopt a pooled slot (or grow the slot table).
  Refs.erase(std::remove_if(
                 Refs.begin(), Refs.end(),
                 [](const MutatorTls &R) { return !instanceIsLive(R.Serial); }),
             Refs.end());
  MutatorSlot *Slot;
  {
    std::lock_guard<std::mutex> Lock(StwMutex);
    if (!FreeMutatorSlots.empty()) {
      Slot = FreeMutatorSlots.back();
      FreeMutatorSlots.pop_back();
    } else {
      Slot = &MutatorSlots[MutatorSlots.grow(1)];
    }
  }
  MutatorTls Entry;
  Entry.Serial = VmSerial;
  Entry.V = this;
  Entry.Slot = Slot;
  Refs.insert(Refs.begin(), Entry);
  return Refs.front();
}

void Vm::returnMutatorSlotTrampoline(void *VmPtr, void *SlotPtr) {
  static_cast<Vm *>(VmPtr)->returnMutatorSlot(
      static_cast<MutatorSlot *>(SlotPtr));
}

void Vm::returnMutatorSlot(MutatorSlot *Slot) {
  assert(Slot->Active.load(std::memory_order_relaxed) == 0 &&
         "thread exited inside a MutatorScope");
  std::lock_guard<std::mutex> Lock(StwMutex);
  FreeMutatorSlots.push_back(Slot);
}

void Vm::enterMutator() {
  MutatorTls &T = mutatorTlsForCurrentThread();
  if (T.Depth++ > 0)
    return;
  MutatorSlot &Slot = *T.Slot;
  Slot.Active.store(1, std::memory_order_seq_cst);
  if (!StwRequested.load(std::memory_order_seq_cst))
    return; // fast path: no pause pending
  // A pause is starting or in progress: stand down and park until it ends.
  std::unique_lock<std::mutex> Lock(StwMutex);
  for (;;) {
    Slot.Active.store(0, std::memory_order_seq_cst);
    StwCv.notify_all();
    StwCv.wait(Lock, [this] {
      return !StwRequested.load(std::memory_order_relaxed);
    });
    Slot.Active.store(1, std::memory_order_seq_cst);
    if (!StwRequested.load(std::memory_order_seq_cst))
      return;
  }
}

void Vm::exitMutator() {
  MutatorTls &T = mutatorTlsForCurrentThread();
  if (--T.Depth > 0)
    return;
  T.Slot->Active.store(0, std::memory_order_seq_cst);
  if (StwRequested.load(std::memory_order_seq_cst)) {
    // A collector is waiting for the mutator count to reach zero.
    std::lock_guard<std::mutex> Lock(StwMutex);
    StwCv.notify_all();
  }
}

int Vm::activeMutatorCount() {
  int N = 0;
  size_t Size = MutatorSlots.size();
  for (size_t I = 0; I < Size; ++I)
    if (MutatorSlots[I].Active.load(std::memory_order_seq_cst))
      ++N;
  return N;
}

void Vm::beginCollector() {
  MutatorTls &T = mutatorTlsForCurrentThread();
  const bool SelfMutator = T.Depth > 0;
  std::unique_lock<std::mutex> Lock(StwMutex);
  while (CollectorActive) {
    // Another thread is collecting. Park like any mutator (exempting our
    // own active slot so its pauses can proceed), then take the role.
    if (SelfMutator) {
      T.Slot->Active.store(0, std::memory_order_seq_cst);
      StwCv.notify_all();
    }
    StwCv.wait(Lock, [this] { return !CollectorActive; });
    if (SelfMutator)
      T.Slot->Active.store(1, std::memory_order_seq_cst);
  }
  CollectorActive = true;
  // Self-mutator exemption: our own slot stays inactive for the duration of
  // the cycle so stopWorld() does not wait for ourselves.
  if (SelfMutator)
    T.Slot->Active.store(0, std::memory_order_seq_cst);
}

void Vm::endCollector() {
  MutatorTls &T = mutatorTlsForCurrentThread();
  {
    std::lock_guard<std::mutex> Lock(StwMutex);
    if (T.Depth > 0)
      T.Slot->Active.store(1, std::memory_order_seq_cst);
    CollectorActive = false;
  }
  StwCv.notify_all();
}

void Vm::stopWorld() {
  std::unique_lock<std::mutex> Lock(StwMutex);
  StwRequested.store(true, std::memory_order_seq_cst);
  StwCv.wait(Lock, [this] { return activeMutatorCount() == 0; });
}

void Vm::resumeWorld() {
  {
    std::lock_guard<std::mutex> Lock(StwMutex);
    StwRequested.store(false, std::memory_order_seq_cst);
  }
  StwCv.notify_all();
}

//===----------------------------------------------------------------------===
// UTF helpers (BMP only)
//===----------------------------------------------------------------------===

std::u16string jinn::jvm::utf8ToUtf16(std::string_view Utf8) {
  std::u16string Out;
  Out.reserve(Utf8.size());
  for (size_t I = 0; I < Utf8.size();) {
    unsigned char C = Utf8[I];
    if (C < 0x80) {
      Out.push_back(C);
      I += 1;
    } else if ((C >> 5) == 0x6 && I + 1 < Utf8.size()) {
      Out.push_back(static_cast<char16_t>(((C & 0x1F) << 6) |
                                          (Utf8[I + 1] & 0x3F)));
      I += 2;
    } else if ((C >> 4) == 0xE && I + 2 < Utf8.size()) {
      Out.push_back(static_cast<char16_t>(((C & 0x0F) << 12) |
                                          ((Utf8[I + 1] & 0x3F) << 6) |
                                          (Utf8[I + 2] & 0x3F)));
      I += 3;
    } else {
      Out.push_back(0xFFFD);
      I += 1;
    }
  }
  return Out;
}

std::string jinn::jvm::utf16ToUtf8(const std::u16string &Chars) {
  std::string Out;
  Out.reserve(Chars.size());
  for (char16_t C : Chars) {
    if (C < 0x80) {
      Out.push_back(static_cast<char>(C));
    } else if (C < 0x800) {
      Out.push_back(static_cast<char>(0xC0 | (C >> 6)));
      Out.push_back(static_cast<char>(0x80 | (C & 0x3F)));
    } else {
      Out.push_back(static_cast<char>(0xE0 | (C >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((C >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (C & 0x3F)));
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===
// Construction / bootstrap
//===----------------------------------------------------------------------===

namespace {

/// TLAB refill cadence; the slots-minus-one mutant is the campaign's
/// documented equivalent mutant (allocation results are unaffected).
size_t tlabSlotsFor(const VmOptions &Options) {
  size_t Slots = Options.TlabSlots ? Options.TlabSlots : 1;
  if (mutate::active(mutate::M::JvmTlabRefillMinusOne) && Slots > 1)
    Slots -= 1;
  return Slots;
}

} // namespace

Vm::Vm(VmOptions Options)
    : Options(Options), TheHeap(tlabSlotsFor(Options)),
      VmSerial(registerLiveInstance(this)) {
  Diags.setEcho(Options.EchoDiagnostics);
  bootstrapCoreClasses();
  attachThread("main");
}

Vm::~Vm() {
  shutdown();
  // After this, no OS-thread-exit destructor can hand a mutator slot back
  // through the registry; the slot storage dies with the members below.
  unregisterLiveInstance(VmSerial);
}

void Vm::bootstrapCoreClasses() {
  // Object and Class must exist before mirrors can be created.
  auto MakeRaw = [&](const std::string &Name, Klass *Super) {
    auto Owned = std::make_unique<Klass>(Name, Super);
    Klass *Raw = Owned.get();
    Raw->InstanceSlots = Super ? Super->InstanceSlots : 0;
    Classes.emplace(Name, std::move(Owned));
    registerClassLocked(Name, Raw);
    return Raw;
  };

  ObjectKlass = MakeRaw("java/lang/Object", nullptr);
  ClassKlass = MakeRaw("java/lang/Class", ObjectKlass);

  auto MakeMirror = [&](Klass *Kl) {
    ObjectId Mirror = TheHeap.allocPlain(ClassKlass, ClassKlass->InstanceSlots);
    Kl->Mirror = Mirror;
    MirrorToKlass.insert(Mirror.raw(), Kl);
  };
  MakeMirror(ObjectKlass);
  MakeMirror(ClassKlass);

  ClassDef StringDef;
  StringDef.Name = "java/lang/String";
  StringKlass = defineClass(StringDef);

  ClassDef ThrowableDef;
  ThrowableDef.Name = "java/lang/Throwable";
  ThrowableDef.field("message", "Ljava/lang/String;")
      .field("cause", "Ljava/lang/Throwable;")
      .field("stack", "Ljava/lang/String;");
  ThrowableKlass = defineClass(ThrowableDef);

  const char *Chain[][2] = {
      {"java/lang/Exception", "java/lang/Throwable"},
      {"java/lang/RuntimeException", "java/lang/Exception"},
      {"java/lang/NullPointerException", "java/lang/RuntimeException"},
      {"java/lang/IllegalArgumentException", "java/lang/RuntimeException"},
      {"java/lang/IllegalMonitorStateException", "java/lang/RuntimeException"},
      {"java/lang/IllegalStateException", "java/lang/RuntimeException"},
      {"java/lang/ArrayIndexOutOfBoundsException",
       "java/lang/RuntimeException"},
      {"java/lang/StringIndexOutOfBoundsException",
       "java/lang/RuntimeException"},
      {"java/lang/ArrayStoreException", "java/lang/RuntimeException"},
      {"java/lang/ClassCastException", "java/lang/RuntimeException"},
      {"java/lang/Error", "java/lang/Throwable"},
      {"java/lang/OutOfMemoryError", "java/lang/Error"},
      {"java/lang/NoClassDefFoundError", "java/lang/Error"},
      {"java/lang/NoSuchMethodError", "java/lang/Error"},
      {"java/lang/NoSuchFieldError", "java/lang/Error"},
      {"java/lang/UnsatisfiedLinkError", "java/lang/Error"},
      {"java/lang/InstantiationError", "java/lang/Error"},
      {"java/lang/Thread", "java/lang/Object"},
  };
  for (auto &Pair : Chain) {
    ClassDef Def;
    Def.Name = Pair[0];
    Def.Super = Pair[1];
    defineClass(Def);
  }

  // Reflection carriers (ToReflectedMethod/Field bridges) and the direct
  // byte buffer class: each holds an opaque pointer-sized payload.
  for (const char *Name : {"java/lang/reflect/Method",
                           "java/lang/reflect/Constructor",
                           "java/lang/reflect/Field"}) {
    ClassDef Def;
    Def.Name = Name;
    Def.field("ptr", "J");
    defineClass(Def);
  }
  ClassDef BufDef;
  BufDef.Name = "java/nio/ByteBuffer";
  BufDef.field("address", "J").field("capacity", "J");
  defineClass(BufDef);
}

Klass *Vm::defineClass(const ClassDef &Def) {
  // Definition allocates a mirror object, so the defining thread must be a
  // mutator (this also orders registry writes before any GC pause).
  MutatorScope Scope(*this);
  std::lock_guard<std::mutex> Lock(ClassesMu);
  return defineClassLocked(Def);
}

Klass *Vm::lookupClassLocked(std::string_view Name) const {
  auto It = Classes.find(Name);
  return It == Classes.end() ? nullptr : It->second.get();
}

void Vm::registerClassLocked(const std::string &Name, Klass *Kl) {
  ClassOrder.push_back(Kl);
  ClassByName.insert(hashBytes(Name.data(), Name.size()), Kl);
}

Klass *Vm::defineClassLocked(const ClassDef &Def) {
  if (Classes.count(Def.Name)) {
    Diags.report(IncidentKind::Note, "jvm",
                 formatString("class %s redefined; keeping first definition",
                              Def.Name.c_str()));
    return lookupClassLocked(Def.Name);
  }
  Klass *Super = nullptr;
  if (Def.Name != "java/lang/Object") {
    Super = lookupClassLocked(Def.Super);
    if (!Super) {
      Diags.report(IncidentKind::FatalError, "jvm",
                   formatString("superclass %s of %s not found",
                                Def.Super.c_str(), Def.Name.c_str()));
      return nullptr;
    }
  }

  auto Owned = std::make_unique<Klass>(Def.Name, Super);
  Klass *Kl = Owned.get();
  uint32_t NextSlot = Super ? Super->InstanceSlots : 0;

  for (const ClassDef::FieldDef &FD : Def.Fields) {
    auto Field = std::make_unique<FieldInfo>();
    Field->Owner = Kl;
    Field->Name = FD.Name;
    Field->Desc = FD.Desc;
    Field->Vis = FD.Vis;
    Field->IsStatic = FD.IsStatic;
    Field->IsFinal = FD.IsFinal;
    if (!parseFieldDescriptor(FD.Desc, Field->Type)) {
      Diags.report(IncidentKind::FatalError, "jvm",
                   formatString("malformed field descriptor %s for %s.%s",
                                FD.Desc.c_str(), Def.Name.c_str(),
                                FD.Name.c_str()));
      return nullptr;
    }
    if (FD.IsStatic)
      Field->StaticValue = defaultValueFor(Field->Type.Kind);
    else
      Field->Slot = NextSlot++;
    FieldIds.insert(reinterpret_cast<uint64_t>(Field.get()), Field.get());
    Kl->Fields.push_back(std::move(Field));
  }
  Kl->InstanceSlots = NextSlot;

  for (const ClassDef::MethodDef &MD : Def.Methods) {
    auto Method = std::make_unique<MethodInfo>();
    Method->Owner = Kl;
    Method->Name = MD.Name;
    Method->Desc = MD.Desc;
    Method->Vis = MD.Vis;
    Method->IsStatic = MD.IsStatic;
    Method->IsNative = MD.IsNative;
    Method->Body = MD.Body;
    Method->DeclSite = MD.DeclSite;
    if (!parseMethodDescriptor(MD.Desc, Method->Sig)) {
      Diags.report(IncidentKind::FatalError, "jvm",
                   formatString("malformed method descriptor %s for %s.%s",
                                MD.Desc.c_str(), Def.Name.c_str(),
                                MD.Name.c_str()));
      return nullptr;
    }
    std::string Site = Method->IsNative
                           ? std::string("Native Method")
                           : (Method->DeclSite.empty() ? "Unknown Source"
                                                       : Method->DeclSite);
    Method->Display =
        dottedName(Def.Name) + "." + Method->Name + "(" + Site + ")";
    MethodIds.insert(reinterpret_cast<uint64_t>(Method.get()), Method.get());
    Kl->Methods.push_back(std::move(Method));
  }

  Classes.emplace(Def.Name, std::move(Owned));
  registerClassLocked(Def.Name, Kl);

  ObjectId Mirror = TheHeap.allocPlain(ClassKlass, ClassKlass->InstanceSlots);
  Kl->Mirror = Mirror;
  MirrorToKlass.insert(Mirror.raw(), Kl);
  return Kl;
}

Klass *Vm::defineArrayClassLocked(std::string_view Name) {
  TypeDesc Elem;
  std::string_view ElemDesc = Name.substr(1);
  if (!parseFieldDescriptor(ElemDesc, Elem))
    return nullptr;
  // For object element types, require the element class to exist.
  if (Elem.isReference() && !Elem.isArray() &&
      !lookupClassLocked(Elem.ClassName))
    return nullptr;

  auto Owned = std::make_unique<Klass>(std::string(Name), ObjectKlass);
  Klass *Kl = Owned.get();
  Kl->setElementType(Elem);
  Classes.emplace(std::string(Name), std::move(Owned));
  registerClassLocked(Kl->name(), Kl);

  ObjectId Mirror = TheHeap.allocPlain(ClassKlass, ClassKlass->InstanceSlots);
  Kl->Mirror = Mirror;
  MirrorToKlass.insert(Mirror.raw(), Kl);
  return Kl;
}

Klass *Vm::findClass(std::string_view Name) {
  if (Name.empty())
    return nullptr;
  // Lock-free fast path against the snapshot index. The hash keys the
  // probe; the predicate rejects collisions by comparing the actual name.
  if (Klass *Kl = ClassByName.find(
          hashBytes(Name.data(), Name.size()),
          [&](Klass *Candidate) { return Candidate->name() == Name; }))
    return Kl;
  if (Name[0] == '[') {
    // Array classes materialize on demand; defining allocates a mirror, so
    // become a mutator first (lock order: StwMutex > ClassesMu).
    MutatorScope Scope(*this);
    std::lock_guard<std::mutex> Lock(ClassesMu);
    // Re-probe under the definer lock: another thread may have materialized
    // the class since the lock-free probe missed. Without this, both
    // threads would register duplicate Klass instances and handles minted
    // against one would not compare equal against the other.
    if (Klass *Kl = lookupClassLocked(Name))
      return Kl;
    return defineArrayClassLocked(Name);
  }
  return nullptr;
}

Klass *Vm::klassOf(ObjectId Obj) {
  HeapObject *HO = TheHeap.resolve(Obj);
  return HO ? HO->Kl : nullptr;
}

Klass *Vm::klassFromMirror(ObjectId Mirror) {
  if (Mirror.isNull())
    return nullptr;
  return MirrorToKlass.find(Mirror.raw());
}

//===----------------------------------------------------------------------===
// Threads
//===----------------------------------------------------------------------===

JThread &Vm::attachThread(std::string Name) {
  JThread *Thread;
  {
    std::lock_guard<std::mutex> Lock(ThreadsMutex);
    uint32_t Id = NextThreadId.fetch_add(1, std::memory_order_relaxed);
    // Ids are never reused, so a request-per-thread server eventually
    // exhausts the 15-bit handle field; fail loudly rather than alias
    // handle encodings in release builds.
    if (Id >= ThreadTable.size()) {
      std::fprintf(stderr,
                   "jinn: thread id space exhausted (%zu attaches)\n",
                   ThreadTable.size());
      std::abort();
    }
    auto Owned = std::make_unique<JThread>(*this, Id, std::move(Name));
    Thread = Owned.get();
    Threads.push_back(std::move(Owned));
    ThreadTable[Id].store(Thread, std::memory_order_release);
  }
  // Attached threads get a base local frame, as with AttachCurrentThread.
  uint32_t BaseCapacity = Options.NativeFrameCapacity;
  if (mutate::active(mutate::M::JvmFrameCapacityPlusOne))
    BaseCapacity += 1;
  Thread->pushFrame(BaseCapacity, /*Explicit=*/false);
  for (VmEventObserver *Observer : observersSnapshot())
    Observer->onThreadStart(*Thread);
  return *Thread;
}

void Vm::detachThread(JThread &Thread) {
  for (VmEventObserver *Observer : observersSnapshot())
    Observer->onThreadEnd(Thread);
  while (Thread.frameDepth() > 0)
    Thread.popFrame();
}

JThread *Vm::threadById(uint32_t Id) {
  if (Id == 0 || Id >= ThreadTable.size())
    return nullptr;
  return ThreadTable[Id].load(std::memory_order_acquire);
}

//===----------------------------------------------------------------------===
// Allocation and strings
//===----------------------------------------------------------------------===

// Every Vm::new* wraps allocation AND maybeAutoGc in one MutatorScope:
// no collection pause can interleave between heap-slot publication and the
// newborn-root publication in maybeAutoGc, so a newborn that is not yet
// reachable from any frame can never be swept (the gc() publication-ordering
// fix of this PR). The scope is reentrant and lock-free when the caller is
// already a mutator (the usual JNI case).

ObjectId Vm::newObject(Klass *Kl) {
  assert(Kl && !Kl->isArray() && "newObject needs a plain class");
  MutatorScope Scope(*this);
  ObjectId Id = TheHeap.allocPlain(Kl, Kl->InstanceSlots);
  // Initialize every inherited field slot to its typed default.
  HeapObject *HO = TheHeap.resolve(Id);
  for (const Klass *K = Kl; K; K = K->super())
    for (const auto &Field : K->Fields)
      if (!Field->IsStatic)
        HO->Fields[Field->Slot] = defaultValueFor(Field->Type.Kind);
  maybeAutoGc(Id);
  return Id;
}

ObjectId Vm::newString(std::string_view Utf8) {
  return newStringUtf16(utf8ToUtf16(Utf8));
}

ObjectId Vm::newStringUtf16(std::u16string Chars) {
  MutatorScope Scope(*this);
  ObjectId Id = TheHeap.allocString(StringKlass, std::move(Chars));
  maybeAutoGc(Id);
  return Id;
}

ObjectId Vm::newPrimArray(JType ElemKind, size_t Len) {
  std::string Name(1, '[');
  Name.push_back(typeDescriptorChar(ElemKind));
  MutatorScope Scope(*this);
  ObjectId Id = TheHeap.allocPrimArray(findClass(Name), ElemKind, Len);
  maybeAutoGc(Id);
  return Id;
}

ObjectId Vm::newObjArray(Klass *ElemClass, size_t Len) {
  assert(ElemClass && "object array needs an element class");
  std::string Name;
  if (ElemClass->isArray())
    Name = "[" + ElemClass->name();
  else
    Name = "[L" + ElemClass->name() + ";";
  MutatorScope Scope(*this);
  ObjectId Id = TheHeap.allocObjArray(findClass(Name), Len);
  maybeAutoGc(Id);
  return Id;
}

std::string Vm::utf8Of(ObjectId Str) {
  HeapObject *HO = TheHeap.resolve(Str);
  if (!HO || HO->Shape != ObjShape::Str)
    return std::string();
  return utf16ToUtf8(HO->Chars);
}

//===----------------------------------------------------------------------===
// Exceptions
//===----------------------------------------------------------------------===

ObjectId Vm::makeThrowable(JThread &Thread, const char *ClassName,
                           std::string Message, ObjectId Cause) {
  Klass *Kl = findClass(ClassName);
  if (!Kl || !Kl->isSubclassOf(ThrowableKlass)) {
    Diags.report(IncidentKind::FatalError, "jvm",
                 formatString("%s is not a throwable class", ClassName));
    Kl = ThrowableKlass;
  }
  // Allocate the payload strings before resolving the throwable: any
  // allocation may grow the heap's slot table and invalidate HeapObject
  // pointers. Temp-root them so an automatic GC cannot reclaim them.
  TempRoots Scope(Thread);
  ObjectId MsgStr = newString(Message);
  Scope.add(MsgStr);
  ObjectId StackStr = newString(Thread.renderStack());
  Scope.add(StackStr);
  ObjectId Ex = newObject(Kl);
  FieldInfo *MsgField = Kl->findField("message", "Ljava/lang/String;", false);
  FieldInfo *CauseField = Kl->findField("cause", "Ljava/lang/Throwable;",
                                        false);
  FieldInfo *StackField = Kl->findField("stack", "Ljava/lang/String;", false);
  HeapObject *HO = TheHeap.resolve(Ex);
  if (MsgField)
    HO->Fields[MsgField->Slot] = Value::makeRef(MsgStr);
  if (CauseField)
    HO->Fields[CauseField->Slot] = Value::makeRef(Cause);
  if (StackField)
    HO->Fields[StackField->Slot] = Value::makeRef(StackStr);
  // Incremental-mark write barrier: once the temp roots above go out of
  // scope, these strings are reachable only through Ex; if a mark is in
  // progress and Ex is already black, the remark must re-scan it.
  TheHeap.recordRefStore(Ex);
  return Ex;
}

void Vm::throwNew(JThread &Thread, const char *ClassName,
                  std::string Message) {
  Thread.Pending = makeThrowable(Thread, ClassName, std::move(Message));
}

std::string Vm::throwableMessage(ObjectId Throwable) {
  Klass *Kl = klassOf(Throwable);
  if (!Kl)
    return std::string();
  FieldInfo *MsgField = Kl->findField("message", "Ljava/lang/String;", false);
  if (!MsgField)
    return std::string();
  HeapObject *HO = TheHeap.resolve(Throwable);
  return utf8Of(HO->Fields[MsgField->Slot].Obj);
}

ObjectId Vm::throwableCause(ObjectId Throwable) {
  Klass *Kl = klassOf(Throwable);
  if (!Kl)
    return ObjectId();
  FieldInfo *CauseField = Kl->findField("cause", "Ljava/lang/Throwable;",
                                        false);
  if (!CauseField)
    return ObjectId();
  HeapObject *HO = TheHeap.resolve(Throwable);
  return HO->Fields[CauseField->Slot].Obj;
}

static std::string dottedName(const std::string &Internal) {
  std::string Out = Internal;
  std::replace(Out.begin(), Out.end(), '/', '.');
  return Out;
}

std::string Vm::describeThrowable(ObjectId Throwable) {
  std::string Out;
  bool First = true;
  size_t PreviousFrames = 0;
  for (ObjectId Ex = Throwable; !Ex.isNull(); Ex = throwableCause(Ex)) {
    Klass *Kl = klassOf(Ex);
    if (!Kl)
      break;
    std::string Header = dottedName(Kl->name());
    std::string Msg = throwableMessage(Ex);
    if (!Msg.empty())
      Header += ": " + Msg;

    FieldInfo *StackField = Kl->findField("stack", "Ljava/lang/String;",
                                          false);
    std::string Stack;
    if (StackField) {
      HeapObject *HO = TheHeap.resolve(Ex);
      Stack = utf8Of(HO->Fields[StackField->Slot].Obj);
    }
    size_t FrameCount =
        static_cast<size_t>(std::count(Stack.begin(), Stack.end(), '\n'));

    if (First) {
      Out += Header + "\n" + Stack;
      First = false;
    } else {
      Out += "Caused by: " + Header + "\n";
      // Figure 9(c) style: show the distinctive top frames, elide the rest.
      size_t Shown = 0;
      size_t Pos = 0;
      while (Shown < 2 && Pos < Stack.size()) {
        size_t End = Stack.find('\n', Pos);
        if (End == std::string::npos)
          break;
        Out += Stack.substr(Pos, End - Pos + 1);
        Pos = End + 1;
        ++Shown;
      }
      if (FrameCount > Shown)
        Out += formatString("\t... %zu more\n", FrameCount - Shown);
    }
    PreviousFrames = FrameCount;
  }
  (void)PreviousFrames;
  return Out;
}

//===----------------------------------------------------------------------===
// Invocation
//===----------------------------------------------------------------------===

Value Vm::invoke(JThread &Thread, MethodInfo *Method, const Value &Self,
                 const std::vector<Value> &Args, bool VirtualDispatch) {
  assert(Method && "invoke needs a method");
  if (Thread.Poisoned || Shutdown)
    return defaultValueFor(Method->Sig.Ret.Kind);

  // Every invocation makes the calling OS thread a mutator: host driver
  // threads entering Java this way park at this boundary during GC.
  MutatorScope Scope(*this);

  MethodInfo *Target = Method;
  if (VirtualDispatch && !Method->IsStatic && Self.isRef() &&
      !Self.Obj.isNull()) {
    if (Klass *Dynamic = klassOf(Self.Obj))
      if (MethodInfo *Found =
              Dynamic->findMethod(Method->Name, Method->Desc, false))
        Target = Found;
  }

  StackEntry Entry;
  Entry.IsNative = Target->IsNative;
  if (Target->Display.empty()) {
    // Methods minted outside defineClass (tests constructing MethodInfo by
    // hand) fall back to building the line here.
    std::string Site = Target->IsNative
                           ? std::string("Native Method")
                           : (Target->DeclSite.empty() ? "Unknown Source"
                                                       : Target->DeclSite);
    Entry.Display = dottedName(Target->Owner->name()) + "." + Target->Name +
                    "(" + Site + ")";
  } else {
    Entry.Display = Target->Display;
  }
  Thread.Stack.push_back(std::move(Entry));

  Value Result = defaultValueFor(Target->Sig.Ret.Kind);
  if (Target->IsNative) {
    if (Target->NativeBound)
      Result = Target->NativeBound(Thread, Self, Args);
    else
      throwNew(Thread, "java/lang/UnsatisfiedLinkError",
               Target->qualifiedName());
  } else if (Target->Body) {
    Result = Target->Body(*this, Thread, Self, Args);
  } else {
    throwNew(Thread, "java/lang/InstantiationError",
             "method has no body: " + Target->qualifiedName());
  }

  if (!Thread.Stack.empty())
    Thread.Stack.pop_back();
  if (!Thread.Pending.isNull())
    return defaultValueFor(Target->Sig.Ret.Kind);
  return Result;
}

Value Vm::invokeByName(JThread &Thread, const char *ClassName,
                       const char *MethodName, const char *Desc,
                       const Value &Self, const std::vector<Value> &Args) {
  if (Thread.Poisoned || Shutdown)
    return Value::makeVoid();
  Klass *Kl = findClass(ClassName);
  if (!Kl) {
    throwNew(Thread, "java/lang/NoClassDefFoundError", ClassName);
    return Value::makeVoid();
  }
  MethodInfo *Method = Kl->findMethodAnyStatic(MethodName, Desc);
  if (!Method) {
    throwNew(Thread, "java/lang/NoSuchMethodError",
             std::string(ClassName) + "." + MethodName);
    return Value::makeVoid();
  }
  return invoke(Thread, Method, Self, Args, /*VirtualDispatch=*/true);
}

//===----------------------------------------------------------------------===
// Global references
//===----------------------------------------------------------------------===

uint64_t Vm::newGlobalRef(ObjectId Target, bool Weak) {
  if (Target.isNull())
    return 0;
  std::lock_guard<std::mutex> Lock(GlobalsMutex);
  uint32_t Index;
  if (!FreeGlobalSlots.empty()) {
    Index = FreeGlobalSlots.back();
    FreeGlobalSlots.pop_back();
  } else {
    Index = static_cast<uint32_t>(Globals.grow(1));
  }
  GlobalSlot &Slot = Globals[Index];
  uint64_t Gen =
      GlobalSlot::genOf(Slot.State.load(std::memory_order_relaxed)) + 1;
  // Target before State: a reader that sees the live state sees this
  // target; one that sees this target while holding an older state sees
  // the state move and retries.
  Slot.Target.store(Target.raw(), std::memory_order_release);
  Slot.State.store((Gen << 3) | GlobalSlot::LiveBit |
                       (Weak ? GlobalSlot::WeakBit : 0),
                   std::memory_order_release);

  HandleBits Bits;
  Bits.Kind = Weak ? RefKind::WeakGlobal : RefKind::Global;
  Bits.Thread = 0;
  Bits.Slot = Index;
  Bits.Gen = static_cast<uint32_t>(Gen); // encodeHandle keeps 23 bits
  return encodeHandle(Bits);
}

LocalRefState Vm::globalRefState(const HandleBits &Bits) const {
  ObjectId Target;
  return lookupGlobal(Bits, Target);
}

LocalRefState Vm::lookupGlobal(const HandleBits &Bits,
                               ObjectId &Target) const {
  Target = ObjectId();
  if (Bits.Slot >= Globals.size())
    return LocalRefState::NeverIssued;
  const GlobalSlot &Slot = Globals[Bits.Slot];
  uint64_t State = Slot.State.load(std::memory_order_acquire);
  for (;;) {
    uint64_t Gen = GlobalSlot::genOf(State);
    if (!generationIssued(Gen, Bits.Gen))
      return LocalRefState::NeverIssued;
    if (!(State & GlobalSlot::LiveBit) || !sameGeneration(Gen, Bits.Gen))
      return LocalRefState::Stale;
    if (State & GlobalSlot::ClearedBit)
      return LocalRefState::Live; // a cleared weak resolves to null
    uint64_t Raw = Slot.Target.load(std::memory_order_acquire);
    // Seqlock-style re-check: the state word never repeats, so an
    // unchanged state means Raw is the target of this very generation.
    uint64_t Again = Slot.State.load(std::memory_order_acquire);
    if (Again == State) {
      Target = ObjectId::fromRaw(Raw);
      return LocalRefState::Live;
    }
    State = Again;
  }
}

ObjectId Vm::resolveGlobal(const HandleBits &Bits) const {
  ObjectId Target;
  lookupGlobal(Bits, Target);
  return Target;
}

bool Vm::deleteGlobalRef(const HandleBits &Bits) {
  std::lock_guard<std::mutex> Lock(GlobalsMutex);
  if (globalRefState(Bits) != LocalRefState::Live)
    return false;
  GlobalSlot &Slot = Globals[Bits.Slot];
  uint64_t Gen =
      GlobalSlot::genOf(Slot.State.load(std::memory_order_relaxed)) + 1;
  // State before zeroing Target: a reader whose target load sees the zero
  // then sees the dead state and retries.
  Slot.State.store(Gen << 3, std::memory_order_release);
  Slot.Target.store(0, std::memory_order_release);
  FreeGlobalSlots.push_back(Bits.Slot);
  return true;
}

size_t Vm::liveGlobalCount(bool Weak) const {
  std::lock_guard<std::mutex> Lock(GlobalsMutex);
  uint64_t Want = GlobalSlot::LiveBit | (Weak ? GlobalSlot::WeakBit : 0);
  size_t N = 0;
  for (size_t I = 0, End = Globals.size(); I < End; ++I) {
    uint64_t State = Globals[I].State.load(std::memory_order_relaxed);
    N += (State & (GlobalSlot::LiveBit | GlobalSlot::WeakBit)) == Want;
  }
  return N;
}

//===----------------------------------------------------------------------===
// Central handle resolution
//===----------------------------------------------------------------------===

ObjectId Vm::resolveHandle(JThread &Current, uint64_t Word,
                           bool *WasUndefined) {
  if (WasUndefined)
    *WasUndefined = false;
  if (Word == 0)
    return ObjectId();
  if (Current.Poisoned)
    return ObjectId();

  std::optional<HandleBits> Bits = decodeHandle(Word);
  if (!Bits) {
    if (WasUndefined)
      *WasUndefined = true;
    undefined(Current, UndefinedOp::IdReferenceConfusion,
              formatString("value %#llx is not a JNI reference",
                           static_cast<unsigned long long>(Word)));
    return ObjectId();
  }
  if (Bits->Kind == RefKind::Null)
    return ObjectId();

  if (Bits->Kind == RefKind::Local) {
    JThread *Owner = threadById(Bits->Thread);
    if (!Owner) {
      if (WasUndefined)
        *WasUndefined = true;
      undefined(Current, UndefinedOp::DanglingLocalRef,
                "local reference from a dead thread");
      return ObjectId();
    }
    LocalRefState State = Owner->localRefState(*Bits);
    if (State != LocalRefState::Live) {
      if (WasUndefined)
        *WasUndefined = true;
      undefined(Current, UndefinedOp::DanglingLocalRef,
                formatString("local reference slot %u of thread %u is %s",
                             Bits->Slot, Bits->Thread,
                             State == LocalRefState::Stale ? "stale"
                                                           : "unknown"));
      return ObjectId();
    }
    if (Owner != &Current) {
      if (WasUndefined)
        *WasUndefined = true;
      ProductionOutcome Out =
          undefined(Current, UndefinedOp::InvalidArgument,
                    formatString("local reference of thread %u used on "
                                 "thread %u",
                                 Bits->Thread, Current.id()));
      // An "Ignore" VM keeps running with the (accidentally valid) target.
      if (Out == ProductionOutcome::Ignore)
        return Owner->resolveLocal(*Bits);
      return ObjectId();
    }
    ObjectId Target = Owner->resolveLocal(*Bits);
    if (TheHeap.isStale(Target)) {
      // The referenced object no longer exists (should not happen while the
      // slot is live and GC roots include locals, but guard anyway).
      return ObjectId();
    }
    return Target;
  }

  // Global / weak global.
  ObjectId Target;
  LocalRefState State = lookupGlobal(*Bits, Target);
  if (State != LocalRefState::Live) {
    if (WasUndefined)
      *WasUndefined = true;
    undefined(Current, UndefinedOp::DanglingGlobalRef,
              formatString("%s reference slot %u is %s",
                           Bits->Kind == RefKind::WeakGlobal ? "weak global"
                                                             : "global",
                           Bits->Slot,
                           State == LocalRefState::Stale ? "stale"
                                                         : "unknown"));
    return ObjectId();
  }
  return Target;
}

Vm::PeekResult Vm::peekHandle(uint64_t Word, const JThread *Perspective) {
  PeekResult Out;
  if (Word == 0)
    return Out;
  std::optional<HandleBits> Bits = decodeHandle(Word);
  if (!Bits || Bits->Kind == RefKind::Null) {
    Out.S = PeekResult::Status::NotARef;
    return Out;
  }
  Out.Kind = Bits->Kind;
  if (Bits->Kind == RefKind::Local) {
    Out.OwnerThread = Bits->Thread;
    JThread *Owner = threadById(Bits->Thread);
    if (!Owner) {
      Out.S = PeekResult::Status::Stale;
      return Out;
    }
    LocalRefState State = Owner->localRefState(*Bits);
    if (State != LocalRefState::Live) {
      Out.S = PeekResult::Status::Stale;
      return Out;
    }
    Out.Target = Owner->resolveLocal(*Bits);
    Out.S = (Perspective && Owner->id() != Perspective->id())
                ? PeekResult::Status::WrongThreadLive
                : PeekResult::Status::Live;
    return Out;
  }
  if (lookupGlobal(*Bits, Out.Target) != LocalRefState::Live) {
    Out.S = PeekResult::Status::Stale;
    return Out;
  }
  Out.S = (Bits->Kind == RefKind::WeakGlobal && Out.Target.isNull())
              ? PeekResult::Status::ClearedWeak
              : PeekResult::Status::Live;
  return Out;
}

//===----------------------------------------------------------------------===
// Monitors
//===----------------------------------------------------------------------===

MonitorResult Vm::monitorEnter(JThread &Thread, ObjectId Obj) {
  std::lock_guard<std::mutex> Lock(MonitorsMutex);
  auto It = Monitors.find(Obj.raw());
  if (It == Monitors.end()) {
    Monitors[Obj.raw()] = {Thread.id(), 1};
    return MonitorResult::Ok;
  }
  if (It->second.OwnerThread == Thread.id()) {
    It->second.Count += 1;
    return MonitorResult::Ok;
  }
  Diags.setCounter("jvm.monitor_contended_enters", ++ContendedEnters);
  if (ContendedEnters <= MaxContentionNotes)
    Diags.report(IncidentKind::Note, "jvm",
                 formatString("monitor contention: thread %u blocked on a "
                              "monitor owned by thread %u",
                              Thread.id(), It->second.OwnerThread));
  return MonitorResult::WouldBlock;
}

MonitorResult Vm::monitorExit(JThread &Thread, ObjectId Obj) {
  std::lock_guard<std::mutex> Lock(MonitorsMutex);
  auto It = Monitors.find(Obj.raw());
  if (It == Monitors.end() || It->second.OwnerThread != Thread.id())
    return MonitorResult::IllegalState;
  if (--It->second.Count == 0)
    Monitors.erase(It);
  return MonitorResult::Ok;
}

//===----------------------------------------------------------------------===
// Pinned resources
//===----------------------------------------------------------------------===

uint64_t Vm::pinObject(JThread &Thread, ObjectId Target, PinKind Kind) {
  std::lock_guard<std::mutex> Lock(PinsMutex);
  if (HeapObject *HO = TheHeap.resolve(Target))
    HO->PinCount += 1;
  uint64_t Cookie = NextPinCookie++;
  Pins.push_back({Target, Kind, Thread.id(), Cookie});
  return Cookie;
}

bool Vm::unpinObject(JThread &Thread, ObjectId Target, PinKind Kind) {
  (void)Thread;
  std::lock_guard<std::mutex> Lock(PinsMutex);
  for (auto It = Pins.rbegin(); It != Pins.rend(); ++It) {
    if (It->Target == Target && It->Kind == Kind) {
      if (HeapObject *HO = TheHeap.resolve(Target))
        if (HO->PinCount > 0)
          HO->PinCount -= 1;
      Pins.erase(std::next(It).base());
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===
// Undefined behavior, GC, lifecycle
//===----------------------------------------------------------------------===

ProductionOutcome Vm::undefined(JThread &Thread, UndefinedOp Op,
                                std::string Detail) {
  ProductionOutcome Out = productionBehavior(Options.Flavor, Op);
  std::string Msg =
      formatString("%s (%s)", undefinedOpName(Op), Detail.c_str());
  switch (Out) {
  case ProductionOutcome::Ignore:
    Diags.report(IncidentKind::UndefinedState, "jvm", std::move(Msg));
    break;
  case ProductionOutcome::Crash:
    Diags.report(IncidentKind::SimulatedCrash, "jvm", std::move(Msg));
    Thread.Poisoned = true;
    break;
  case ProductionOutcome::ThrowNpe:
    throwNew(Thread, "java/lang/NullPointerException", std::move(Msg));
    break;
  case ProductionOutcome::Deadlock:
    Diags.report(IncidentKind::PotentialDeadlock, "jvm", std::move(Msg));
    Thread.Poisoned = true;
    break;
  }
  return Out;
}

bool Vm::anyThreadInCritical() const {
  uint32_t Max = NextThreadId.load(std::memory_order_acquire);
  for (uint32_t Id = 1; Id < Max && Id < ThreadTable.size(); ++Id) {
    JThread *Thread = ThreadTable[Id].load(std::memory_order_acquire);
    if (Thread && Thread->CriticalDepth.load(std::memory_order_acquire) > 0)
      return true;
  }
  return false;
}

void Vm::collectRoots(std::vector<ObjectId> &Roots) {
  // Runs inside a stop-the-world pause: every mutator (class definers,
  // attachers, ref writers included) is parked, so the plain structures are
  // quiescent. The remaining locks are uncontended and guard against
  // non-mutator callers in single-threaded tests.
  {
    std::lock_guard<std::mutex> Lock(ClassesMu);
    for (Klass *Kl : ClassOrder) {
      Roots.push_back(Kl->Mirror);
      for (const auto &Field : Kl->Fields)
        if (Field->IsStatic && Field->StaticValue.isRef())
          Roots.push_back(Field->StaticValue.Obj);
    }
  }
  uint32_t Max = NextThreadId.load(std::memory_order_acquire);
  for (uint32_t Id = 1; Id < Max && Id < ThreadTable.size(); ++Id)
    if (JThread *Thread = ThreadTable[Id].load(std::memory_order_acquire))
      Thread->collectRoots(Roots);
  {
    std::lock_guard<std::mutex> Lock(GlobalsMutex);
    for (size_t I = 0, End = Globals.size(); I < End; ++I) {
      const GlobalSlot &Slot = Globals[I];
      uint64_t State = Slot.State.load(std::memory_order_relaxed);
      if ((State & (GlobalSlot::LiveBit | GlobalSlot::WeakBit)) ==
          GlobalSlot::LiveBit)
        Roots.push_back(
            ObjectId::fromRaw(Slot.Target.load(std::memory_order_relaxed)));
    }
  }
  {
    std::lock_guard<std::mutex> Lock(PinsMutex);
    for (const PinRecord &Pin : Pins)
      Roots.push_back(Pin.Target);
  }
  // Newborns: objects allocated but not yet reachable, published on the
  // allocating thread's mutator slot before it entered (or parked behind)
  // this collection.
  size_t Slots = MutatorSlots.size();
  for (size_t I = 0; I < Slots; ++I) {
    uint64_t Raw = MutatorSlots[I].Newborn.load(std::memory_order_acquire);
    if (Raw)
      Roots.push_back(ObjectId::fromRaw(Raw));
  }
}

void Vm::gc() {
  if (anyThreadInCritical()) {
    Diags.report(IncidentKind::Note, "jvm",
                 "GC request ignored: a thread holds a critical section");
    return;
  }

  // Take the collector role. A caller inside a MutatorScope (auto-GC from
  // an allocation in a native call) exempts its own slot while it collects;
  // if another thread's collection is already running, it parks like any
  // mutator until that finishes, then runs its own (the request was
  // explicit).
  beginCollector();

  auto ClearDeadWeakGlobals = [this] {
    constexpr uint64_t Flags = GlobalSlot::LiveBit | GlobalSlot::WeakBit |
                               GlobalSlot::ClearedBit;
    std::lock_guard<std::mutex> GLock(GlobalsMutex);
    for (size_t I = 0, End = Globals.size(); I < End; ++I) {
      GlobalSlot &Slot = Globals[I];
      uint64_t State = Slot.State.load(std::memory_order_relaxed);
      if ((State & Flags) != (GlobalSlot::LiveBit | GlobalSlot::WeakBit) ||
          TheHeap.isMarked(
              ObjectId::fromRaw(Slot.Target.load(std::memory_order_relaxed))))
        continue;
      // Same order as a delete: the cleared state, then the zero target.
      Slot.State.store(State | GlobalSlot::ClearedBit,
                       std::memory_order_release);
      Slot.Target.store(0, std::memory_order_release);
    }
  };

  std::vector<ObjectId> Roots;
  if (!Options.IncrementalMark) {
    // Classic single-pause collection.
    stopWorld();
    collectRoots(Roots);
    TheHeap.collect(Roots, Options.MoveOnGc, ClearDeadWeakGlobals);
    AllocsSinceGc.store(0, std::memory_order_relaxed);
    resumeWorld();
  } else {
    // Pause 1: snapshot roots, activate the write barrier, start tracing.
    stopWorld();
    collectRoots(Roots);
    TheHeap.beginIncrementalMark(Roots);
    bool Done = TheHeap.incrementalMarkStep(Options.GcMarkStepBudget);
    resumeWorld();
    // Mark increments, with mutator windows between the pauses.
    while (!Done) {
      stopWorld();
      Done = TheHeap.incrementalMarkStep(Options.GcMarkStepBudget);
      resumeWorld();
    }
    // Final pause: remark from fresh roots + dirty containers, then
    // sweep/move.
    stopWorld();
    Roots.clear();
    collectRoots(Roots);
    TheHeap.finishCollect(Roots, Options.MoveOnGc, ClearDeadWeakGlobals);
    AllocsSinceGc.store(0, std::memory_order_relaxed);
    resumeWorld();
  }

  endCollector();
  for (VmEventObserver *Observer : observersSnapshot())
    Observer->onGcFinish();
}

void Vm::maybeAutoGc(ObjectId Newborn) {
  if (Options.AutoGcPeriod == 0)
    return;
  if (AllocsSinceGc.fetch_add(1, std::memory_order_relaxed) + 1 <
      Options.AutoGcPeriod)
    return;
  // The caller has not yet stored Newborn anywhere a root scan can see.
  // Publish it on our mutator slot before any collection can start: gc()
  // may park this thread (self-mutator exemption) while another thread's
  // collection runs, and that collection must not sweep the newborn either.
  // The caller (Vm::new*) holds a MutatorScope across allocation and this
  // publication, so no pause can observe the slot between the two.
  MutatorTls &T = mutatorTlsForCurrentThread();
  assert(T.Depth > 0 && "maybeAutoGc outside a MutatorScope");
  if (!Newborn.isNull())
    T.Slot->Newborn.store(Newborn.raw(), std::memory_order_release);
  gc();
  if (!Newborn.isNull())
    T.Slot->Newborn.store(0, std::memory_order_release);
}

void Vm::shutdown() {
  if (Shutdown.exchange(true, std::memory_order_acq_rel))
    return;
  for (VmEventObserver *Observer : observersSnapshot())
    Observer->onVmDeath();
}

std::vector<VmEventObserver *> Vm::observersSnapshot() const {
  std::lock_guard<std::mutex> Lock(ObserversMutex);
  return Observers;
}

void Vm::addObserver(VmEventObserver *Observer) {
  std::lock_guard<std::mutex> Lock(ObserversMutex);
  Observers.push_back(Observer);
}

void Vm::removeObserver(VmEventObserver *Observer) {
  std::lock_guard<std::mutex> Lock(ObserversMutex);
  Observers.erase(std::remove(Observers.begin(), Observers.end(), Observer),
                  Observers.end());
}
