//===- jni/JniFunctionId.h - Dense ids for the 229 JNI functions ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FnId enumerates every JNI function in function-table order. Dense ids
/// key the trait table, the interposition dispatcher, and the Table 2
/// census.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JNI_JNIFUNCTIONID_H
#define JINN_JNI_JNIFUNCTIONID_H

#include <cstdint>
#include <string_view>

namespace jinn::jni {

enum class FnId : uint16_t {
#define JNI_FN(Name, Ret, Params, Args) Name,
#include "jni/JniFunctions.def"
#undef JNI_FN
  Count,
};

/// Number of JNI functions (229 in JNI 1.6, as in the paper).
constexpr size_t NumJniFunctions = static_cast<size_t>(FnId::Count);

/// Most parameters any registry function takes after its JNIEnv*. The one
/// arity bound: it sizes FnTraits::Params, the captured-argument array of
/// an in-flight call, and the argument records of a trace event, and
/// JniTraits.cpp asserts at compile time that every function fits.
constexpr size_t MaxJniParams = 5;

/// The function's name ("CallStaticVoidMethodA").
const char *fnName(FnId Id);

/// Reverse lookup; FnId::Count when unknown.
FnId fnIdByName(std::string_view Name);

} // namespace jinn::jni

#endif // JINN_JNI_JNIFUNCTIONID_H
